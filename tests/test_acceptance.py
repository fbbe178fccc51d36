"""Acceptance suite: every criterion at its stated size and tolerance.

Each test runs one criterion of the full profile and prints its pass/fail
line (visible with `pytest -s` or in the failure report).  The quick-profile
end-to-end byte-determinism of the `verify` command is part of criterion 10.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcayley
from qcayley import verify


def _run(number: int) -> None:
    result = verify.run_criterion(number, profile="full")
    print()
    print(result.line())
    for d in result.details:
        print(f"    {d}")
    assert result.passed, f"criterion {number} failed: {result.details}"


def test_criterion_01_telescoping_path_identity():
    _run(1)


def test_criterion_02_bounded_paths_vs_classical_properness():
    _run(2)


@pytest.mark.xfail(
    strict=True,
    reason="internally contradictory at the pinned parameters: the criterion "
    "itself forces the residual to equal m_k/m_31 exactly, and at k = 10 that "
    "value is 17711/10610209857723 ~ 1.7e-9 > 1e-10 (the dimensions grow with "
    "ratio ~2.618, not 3; the threshold first becomes reachable at R = 33). "
    "The check is implemented literally and reports the analysis.",
)
def test_criterion_03_inverse_series_residuals():
    _run(3)


def test_criterion_04_gram_certification():
    _run(4)


def test_criterion_05_unitary_linear_growth():
    _run(5)


def test_criterion_06_tensor_grade_parseval():
    _run(6)


def test_criterion_07_rapid_decay_series():
    _run(7)


def test_criterion_08_inequality_chain_property():
    _run(8)


def test_criterion_09_dimension_engine():
    _run(9)


def test_criterion_10_deterministic_reports():
    _run(10)
    cmd = [sys.executable, "-m", "qcayley.cli", "verify", "--profile", "quick",
           "--seed", "108"]
    env = {**os.environ, "PYTHONPATH": str(Path(qcayley.__file__).resolve().parents[1])}
    first = subprocess.run(cmd, capture_output=True, timeout=900, env=env)
    second = subprocess.run(cmd, capture_output=True, timeout=900, env=env)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout and first.stdout
