"""Golden-document guard: CLI outputs must stay byte-identical.

For seeds 0-4 of both models the test regenerates the spectral and
curve documents (``gen-spectral``), the radius-3 field (``build``), its
CSV and JSON exports, and the radius-2, 8-probe ``verify -o`` report,
then compares the SHA-256 of every file with ``tests/golden_hashes.json``.

Any change to the numbers a document holds, down to the last printed
digit, fails this test.  A change that is meant to move documents must
say why and re-record the hashes with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_hashes.json
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from crosshex.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_hashes.json"
MODELS = ("cross", "hex")
SEEDS = range(5)


def _run(argv) -> None:
    code = main(argv)
    if code != 0:
        raise AssertionError(f"crosshex {' '.join(argv)} exited {code}")


def pipeline_hashes(root: Path) -> dict[str, str]:
    """Run the golden pipelines under ``root``; map file name to SHA-256."""
    for model in MODELS:
        for seed in SEEDS:
            stem = root / f"{model}-{seed}"
            spectral = f"{stem}.json"
            field = f"{stem}-field.json"
            _run(["gen-spectral", "--model", model, "--seed", str(seed), "-o", spectral])
            _run(["build", "-i", spectral, "--window", "3", "-o", field])
            _run(["export", "-i", field, "--format", "csv", "-o", f"{stem}-field.csv"])
            _run(["export", "-i", field, "--format", "json", "-o", f"{stem}-export.json"])
            _run(["verify", "-i", spectral, "--window", "2", "--probes", "8",
                  "-o", f"{stem}-verify.json"])
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.iterdir())
    }


def test_documents_match_golden_hashes(tmp_path):
    got = pipeline_hashes(tmp_path)
    expected = json.loads(GOLDEN_PATH.read_text())
    changed = sorted(name for name in expected if got.get(name) != expected[name])
    assert set(got) == set(expected)
    assert not changed, f"documents differ from the golden hashes: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        hashes = pipeline_hashes(Path(tmp))
    print(json.dumps(hashes, indent=2, sort_keys=True))
