"""Hostile documents and argument vectors never crash the CLI.

Each example takes a valid document, mutates one place in it (drops a
key or list entry, wraps a value in another type, or puts in a huge or
non-finite number or nested junk) and runs the commands that read it.
Every run must end with exit 0, 1 or 2; an exception escaping ``main``
fails the test.  Field metadata that ``export`` would copy into its
output (a NaN normalization, a non-integer seed, a non-string ref) must
exit 2.  Argument vectors are each command's valid vector with a few
edits (a value swapped for a bad or edge one, a token dropped, an option
or a junk token added), run in a fresh directory holding good, empty,
non-UTF-8, too deeply nested and missing files.  Hypothesis runs
derandomized, so the examples are the same on every run.
"""

import contextlib
import copy
import io
import json
import math
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crosshex.cli import main

HUGE = (1e308, -1e308, 2**70, math.nan, math.inf, -math.inf)
JUNK = ({"x": [1, {"y": None}]}, [[]], "junk", None, True)

# sized so that the two tests add about a second to tier-1
HOSTILE = settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _paths(node, path=()):
    """The key path of every value under ``node``, containers and leaves alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one value dropped, wrapped in another type, or replaced by a huge number or junk."""
    doc = copy.deepcopy(doc)
    *trail, key = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for step in trail:
        parent = parent[step]
    action = draw(st.sampled_from(("huge", "huge", "junk", "wrap", "drop")))
    if action == "drop":
        del parent[key]
    elif action == "wrap":
        parent[key] = draw(st.sampled_from((str(parent[key]), [parent[key]], {"v": parent[key]})))
    else:
        parent[key] = copy.deepcopy(draw(st.sampled_from(HUGE if action == "huge" else JUNK)))
    return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A generated spectral document, its curve document and a built field, per model."""
    root = tmp_path_factory.mktemp("hostile")
    docs = {}
    for model in ("cross", "hex"):
        spectral, field = root / f"{model}.json", root / f"{model}-field.json"
        assert _run(["gen-spectral", "--model", model, "--seed", "1", "-o", str(spectral)]) == 0
        assert _run(["build", "-i", str(spectral), "--window", "1", "-o", str(field)]) == 0
        sdoc = json.loads(spectral.read_text())
        cdoc = json.loads((root / sdoc["curve_ref"]).read_text())
        docs[model] = (sdoc, cdoc, json.loads(field.read_text()))
    return root, docs


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(HOSTILE, max_examples=150)
@given(
    data=st.data(),
    model=st.sampled_from(("cross", "hex")),
    backend=st.sampled_from(("torus-analytic", "tabulated")),
    curve=st.booleans(),
)
def test_mutated_spectral_and_curve_documents_exit_cleanly(documents, data, model, backend, curve):
    root, docs = documents
    sdoc, cdoc, _ = docs[model]
    sdoc = {**sdoc, "backend": backend}
    if curve:
        cdoc = data.draw(mutated(cdoc))
    else:
        sdoc = data.draw(mutated(sdoc))
    work = root / "spectral-case"
    work.mkdir(exist_ok=True)
    spectral = work / "s.json"
    spectral.write_text(json.dumps(sdoc))
    (work / docs[model][0]["curve_ref"]).write_text(json.dumps(cdoc))
    for argv in (
        ["build", "-i", str(spectral), "--window", "1", "-o", str(work / "f.json")],
        ["verify", "-i", str(spectral), "--window", "0", "--probes", "8"],
    ):
        assert _run(argv) in (0, 1, 2), argv[0]


@HOSTILE
@given(data=st.data(), model=st.sampled_from(("cross", "hex")))
def test_mutated_field_documents_exit_cleanly(documents, data, model):
    root, docs = documents
    field = root / "field-case.json"
    field.write_text(json.dumps(data.draw(mutated(docs[model][2]))))
    for fmt in ("csv", "json"):
        assert _run(["export", "-i", str(field), "--format", fmt, "-o", str(root / "out")]) in (0, 1, 2)


@pytest.mark.parametrize(
    "metadata",
    [
        {"normalization": math.nan},
        {"seed": math.inf},
        {"normalization": {"kind": "weird", "value": [math.nan, 0]}},
        {"spectral_data_ref": 5},
        {"seed": "x"},
    ],
    ids=["nan-normalization", "infinite-seed", "nan-in-unknown-normalization", "integer-ref", "string-seed"],
)
def test_field_metadata_is_checked_before_export(documents, metadata):
    # export used to copy these into its output, NaN and Infinity as non-JSON literals
    root, docs = documents
    field = root / "metadata-case.json"
    field.write_text(json.dumps({**docs["cross"][2], **metadata}))
    for fmt in ("csv", "json"):
        assert _run(["export", "-i", str(field), "--format", fmt, "-o", str(root / "out")]) == 2


# -- argument vectors ------------------------------------------------------------

# every file name an argument vector may give; "dir" is a directory, the
# nested path and "missing.json" do not exist
NAMES = (
    "spec.json", "hex.json", "spec.curve.json", "field.json", "empty.json", "junk.bin", "deep.json",
    "missing.json", "dir", "dir/nested/out.json", "out.json", "out.csv", "out",
)
TOLERANCES = ("1e-8", "1e-300", "0", "-1", "nan", "inf", "x")
OPTION_VALUES = {
    "--model": ("cross", "hex", "square", ""),
    "--seed": ("0", "1", "9", "-1", "1.5", "x", ""),
    "--b-re": ("-3.5", "-7", "-3", "-2.99", "-40", "-9000", "-2e4", "nan", "-inf", "x"),
    "--b-im": ("0", "2.5", "-4999", "6000", "nan", "x"),
    "--window": ("0", "1", "2", "-1", "1.0", "x"),
    "--probes": ("8", "9", "7", "0", "x"),
    "--tol": TOLERANCES,
    "--gap-tol": TOLERANCES,
    "--match-tol": TOLERANCES,
    "--format": ("csv", "json", "xml"),
    "-i": NAMES,
    "--input": NAMES,
    "-o": NAMES,
    "--output": NAMES,
}
# one valid vector per command, which the drawn edits then break or vary
VALID = {
    "gen-spectral": ["--model", "hex", "--seed", "1", "-o", "out.json"],
    "build": ["-i", "spec.json", "--window", "1", "-o", "out.json"],
    "verify": ["-i", "spec.json", "--window", "0", "--probes", "8"],
    "export": ["-i", "field.json", "--format", "csv", "-o", "out.csv"],
}
TOKENS = ("--help", "-h", "--", "-", "spec.json", "--verbose", "=", "", "verify")

# sized so that the test adds about 1.5 s to tier-1 (2-core Xeon)
ARGV = settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def argument_vectors(draw):
    """A command's valid vector with up to three edits: a value swapped, a token dropped, an option or junk added."""
    command = draw(st.sampled_from((*VALID, "no-such-command")))
    argv = list(VALID.get(command, []))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("swap", "swap", "drop", "add", "junk")))
        at = draw(st.integers(0, len(argv)))
        if edit == "swap" and 0 < at < len(argv) and argv[at - 1] in OPTION_VALUES:
            argv[at] = draw(st.sampled_from(OPTION_VALUES[argv[at - 1]]))
        elif edit == "drop" and at < len(argv):
            del argv[at]
        elif edit == "add":
            option = draw(st.sampled_from(tuple(OPTION_VALUES)))
            argv[at:at] = [option, draw(st.sampled_from(OPTION_VALUES[option]))]
        elif edit == "junk":
            argv.insert(at, draw(st.sampled_from(TOKENS)))
    return [command, *argv]


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """The files of ``NAMES`` that exist, made once and copied into a fresh directory per example."""
    root = tmp_path_factory.mktemp("argv")
    with _cwd(root):
        assert _run(["gen-spectral", "--model", "cross", "--seed", "1", "-o", "spec.json"]) == 0
        assert _run(["gen-spectral", "--model", "hex", "--seed", "2", "-o", "hex.json"]) == 0
        assert _run(["build", "-i", "spec.json", "--window", "1", "-o", "field.json"]) == 0
    (root / "empty.json").write_text("")
    (root / "junk.bin").write_bytes(bytes(range(256)))
    (root / "deep.json").write_text("[" * 100_000 + "]" * 100_000)  # deeper than the decoder recurses
    (root / "dir").mkdir()
    return root


@contextlib.contextmanager
def _cwd(path):
    """Run the block in ``path`` (``contextlib.chdir`` needs Python 3.11)."""
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


@ARGV
@given(argv=argument_vectors())
def test_argument_vectors_exit_cleanly(argv_files, argv):
    with tempfile.TemporaryDirectory() as work, _cwd(work):
        shutil.copytree(argv_files, work, dirs_exist_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
