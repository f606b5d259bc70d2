"""Byte-identity of `exanova anova` and `exanova verify` output against
recorded golden files.

The inputs live in tests/data/golden: the built-in n0, n1 and n2 layouts
with fixed decimal responses (rows in replicate-major file order, not
cell order), a one-observation-per-cell layout with an empty cell (no
residual df), and a user contrast file.  The expected anova outputs under
tests/data/golden/expected were recorded from the observation-space
engine; any change in the bytes of a table or JSON report fails here.
The `verify` suites (default seeds and trials) are recorded beside them,
so that a refactor of the exact core cannot change a check's wording,
count or outcome unnoticed.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from exanova.cli import MODEL_PRESETS, main

GOLDEN = Path(__file__).parent / "data" / "golden"
EXPECTED = GOLDEN / "expected"
EFFECT_BITS = {"A": "10", "B": "01", "AB": "11"}


def _cases():
    """(name, argv) pairs; paths are relative to the golden directory."""
    out = []

    def add(data, model, effect, contrasts=None):
        tag = model.replace(":", "-").replace(",", "-")
        stem = f"{data}-{effect}-{tag}" + ("-user" if contrasts else "")
        for fmt in ("table", "json"):
            argv = ["anova", "--data", f"{data}.csv", "--model", model,
                    "--effect", effect, "--type", "all", "--output", fmt]
            if contrasts:
                argv += ["--contrasts", contrasts]
            out.append((f"{stem}.{fmt}", argv))

    for data in ("n0", "n1", "n2", "gap"):
        for model, effects in MODEL_PRESETS.items():
            for effect, bits in EFFECT_BITS.items():
                if bits in effects:
                    add(data, model, effect)
    for data in ("n0", "n2"):
        for effect in EFFECT_BITS:
            add(data, "saturated", effect, contrasts="contrasts.json")
    add("n2", "custom:00,11", "AB")
    for suite in ("table1", "prop1", "dominance", "prop3", "fdist"):
        out.append((f"verify-{suite}.txt", ["verify", suite]))
    out.append(("verify-prop3-2-3-2.txt", ["verify", "prop3", "--dims", "2,3,2"]))
    out.append(("verify-dominance-matrices.txt", ["verify", "dominance", "--matrices", "xhl.json"]))
    return out


CASES = _cases()


def _run(argv):
    argv = [str(GOLDEN / a) if a.endswith((".csv", ".json")) else a for a in argv]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(name, argv):
    expected = (EXPECTED / name).read_bytes()
    assert _run(argv).encode("utf-8") == expected


def test_every_golden_file_is_a_case():
    assert sorted(p.name for p in EXPECTED.iterdir()) == sorted(name for name, _ in CASES)


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    for name, argv in CASES:
        (EXPECTED / name).write_bytes(_run(argv).encode("utf-8"))
    print(f"recorded {len(CASES)} golden outputs", file=sys.stderr)
