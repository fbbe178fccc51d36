"""Golden CLI transcript: stdout and exit code, byte for byte.

Each case runs `main` in-process and compares against `golden_cli.json`.
Stderr is not compared, so refusal messages may be reworded; a refusal
case records only its exit code.  Regenerate the data file (only when a
report change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
import sys
from pathlib import Path

import pytest

from qcayley.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

CASES = {
    "dims-csv": ["dims", "--spec", "Ao(3)", "--count", "12", "--format", "csv"],
    "dims-json": ["dims", "--spec", "Ao(7/2)", "--count", "8"],
    "tree": ["tree", "--spec", "Ao(3)*Au(3)", "--radius", "4"],
    "tree-rational-dimq": ["tree", "--spec", "Ao(7/2)*Au(3)", "--radius", "3"],
    "paths-json": ["paths", "--spec", "Ao(3)*Au(3)", "--radius", "5"],
    "paths-csv": ["paths", "--spec", "Ao(3)*Au(3)", "--radius", "5", "--format", "csv"],
    "paths-rational-dimq": ["paths", "--spec", "Ao(7/2)", "--radius", "6"],
    "paths-unit-weights": ["paths", "--spec", "Au(3)", "--radius", "3", "--unit-weights"],
    "fixed-vector-ao": ["fixed-vector", "--spec", "Ao(3)", "--radius", "40"],
    "fixed-vector-au": ["fixed-vector", "--spec", "Au(3)", "--radius", "25"],
    "fixed-vector-mixed": ["fixed-vector", "--spec", "Ao(3)*Au(3)", "--radius", "30"],
    "gram-kmax": ["gram", "--spec", "Ao(3)", "--kmax", "5"],
    "gram-entry": ["gram", "--spec", "Ao(3)", "--k", "2", "--l", "4"],
    "gram-kmax-rational-dimq": ["gram", "--spec", "Ao(7/2)", "--kmax", "6"],
    "gram-kmax-at-the-radius": ["gram", "--spec", "Ao(4)", "--kmax", "3", "--radius", "3"],
    "growth-csv": ["growth", "--spec", "Au(3)", "--format", "csv"],
    "growth-json": ["growth", "--spec", "Au(3)"],
    "growth-au4-n9": ["growth", "--spec", "Au(4)", "--n-max", "9", "--format", "csv"],
    "rd-norm": ["rd-norm", "--spec", "Ao(3)"],
    "rd-norm-weighted": ["rd-norm", "--spec", "Ao(7/2)", "--r", "2"],
    "rd-norm-half": ["rd-norm", "--spec", "Ao(4)", "--s", "1/2", "--radius", "40"],
    "rd-norm-radius-0": ["rd-norm", "--spec", "Ao(7/2)", "--s", "1", "--r", "3/2", "--radius", "0"],
    "rd-norm-dimq-between-2-and-3": ["rd-norm", "--spec", "Ao(5/2)", "--radius", "60"],
    "schur": ["schur", "--a", "growth:3"],
    "schur-rational-a": ["schur", "--a", "3/2", "--size", "7"],
    "chain-check": ["chain-check", "--a", "growth:3", "--seed", "11"],
    "chain-check-rational-a": ["chain-check", "--a", "3/2", "--seed", "5", "--count", "50"],
    "chain-check-fine-enclosure": ["chain-check", "--a", "growth:3", "--tolerance", "1e-60",
                                   "--count", "200", "--seed", "3"],
    "verify-quick": ["verify", "--profile", "quick", "--seed", "108"],
    "verify-full": ["verify", "--profile", "full", "--seed", "108"],
}

REFUSALS = {
    "dims-unitary": ["dims", "--spec", "Au(3)"],
    "gram-unitary": ["gram", "--spec", "Au(3)"],
    "rd-norm-product": ["rd-norm", "--spec", "Ao(3)*Ao(3)"],
    "fixed-vector-dim2": ["fixed-vector", "--spec", "Ao(2)"],
    "gram-dim2": ["gram", "--spec", "Ao(2)"],
    "growth-past-the-walk-cap": ["growth", "--spec", "Au(3)", "--n-max", "30"],
    "chain-check-a-one": ["chain-check", "--a", "1"],
    "schur-growth-dim2": ["schur", "--a", "growth:2"],
}


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout_and_exit(name, capsys):
    want = _golden()[name]
    code = main(list(CASES[name]))
    assert code == want["exit"]
    assert capsys.readouterr().out == want["stdout"]


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_golden_refusal_exit(name, capsys):
    assert main(list(REFUSALS[name])) == _golden()[name]["exit"]
    assert capsys.readouterr().out == ""


def _record():
    import contextlib
    import io

    data = {}
    for name, argv in {**CASES, **REFUSALS}.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        data[name] = {"argv": argv, "exit": code}
        if name in CASES:
            data[name]["stdout"] = out.getvalue()
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(_record())
