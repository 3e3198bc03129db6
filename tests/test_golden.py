"""Golden artifacts: one small run per subcommand against checked-in CSVs.

Rows must match to 1e-12 relative tolerance (NaN equals NaN) and the header
exactly; metadata must match apart from the run-dependent keys below.  The
CSVs under tests/golden/ were written by this file's generator:

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which rewrites the named artifacts (the keys of CASES), or all of them when
no name is given.  Regenerate only the artifacts a change is meant to alter,
and say so.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from lzsim.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# metadata that differs from run to run or from one invocation style to another
VOLATILE_KEYS = frozenset(("wall-time-s", "out"))

CASES = {
    "rabi-freq": ("rabi-freq", "coupling=0.1", "k=2", "n=figure", "gap=0.01"),
    "evolve-semiclassical": (
        "evolve", "picture=semiclassical", "gap=0.4", "bias=2", "amplitude=10",
        "t-end=20", "samples=41", "steps-per-period=256",
    ),
    "evolve-quantum": (
        "evolve", "picture=quantum", "gap=0.4", "bias=2", "coupling=0.25",
        "initial=coherent", "mean=10", "quadrature=true", "t-end=30", "samples=61",
    ),
    "fit-shift": ("fit-shift", "coupling=0.5,1.0", "k=1,2", "n=100:1000:100", "gap=0.01"),
    "bessel-approx": ("bessel-approx", "k=0,2,5", "x=1:30:1"),
    "identity-sweep": ("identity-sweep", "x=0.01,0.1", "n=0:200:10", "k=0:3:1"),
    # rows follow the requested order, repeats included
    "identity-sweep-unordered": ("identity-sweep", "x=0.05,0.05", "n=7,3,7", "k=2,0,2"),
}


def run_artifact(argv) -> str:
    """CSV text that `lzsim <argv>` writes to stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    assert code == 0, f"lzsim {' '.join(argv)} exited {code}"
    return buffer.getvalue()


def split_artifact(text):
    """(metadata without volatile keys, header, rows as a float array)."""
    meta = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            if key not in VOLATILE_KEYS:
                meta[key] = value
        elif line:
            lines.append(line)
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return meta, header, rows


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_artifact(name):
    expected = split_artifact((GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8"))
    meta, header, rows = split_artifact(run_artifact(CASES[name]))
    assert header == expected[1]
    assert meta == expected[0]
    assert rows.shape == expected[2].shape
    np.testing.assert_allclose(rows, expected[2], rtol=1e-12, atol=0.0, equal_nan=True)


def test_regeneration_writes_only_the_named_artifacts(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
    write_goldens(["bessel-approx"])
    assert [path.name for path in tmp_path.iterdir()] == ["bessel-approx.csv"]
    with pytest.raises(SystemExit, match="unknown golden artifact"):
        write_goldens(["bessel-approx", "no-such-artifact"])
    assert len(list(tmp_path.iterdir())) == 1


def write_goldens(names) -> None:
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden artifact(s) {unknown}; known: {sorted(CASES)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        kept = [
            line for line in run_artifact(CASES[name]).splitlines(keepends=True)
            if not (line.startswith("# ") and line[2:].partition(" = ")[0] in VOLATILE_KEYS)
        ]
        (GOLDEN_DIR / f"{name}.csv").write_text("".join(kept), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}.csv", file=sys.stderr)


if __name__ == "__main__":
    write_goldens(sys.argv[1:] or list(CASES))
