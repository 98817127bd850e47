"""Hostile documents: mutated spectral, curve and field documents never crash the CLI.

Each example takes a valid document, mutates one place in it (drops a
key or list entry, wraps a value in another type, or puts in a huge or
non-finite number or nested junk) and runs the commands that read it.
Every run must end with exit 0, 1 or 2; an exception escaping ``main``
fails the test.  Hypothesis runs derandomized, so the examples are the
same on every run.
"""

import contextlib
import copy
import io
import json
import math

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
