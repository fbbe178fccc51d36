"""Command-line surface: formats, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qcayley
from qcayley.cli import _CONFIG_KEYS, main
from qcayley.estimates import MAX_TOEPLITZ_SIZE
from qcayley.scalars import _text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_csv_frozen_row(capsys):
    code, out, _ = run_cli(capsys, "dims", "--spec", "Ao(3)", "--count", "6", "--format", "csv")
    assert code == 0
    assert out == "1,3,8,21,55,144\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("dimq", ["3", "7/2"])
def test_dims_past_the_int_to_str_limit(capsys, fmt, dimq):
    # with the limit at 640 digits, the last of 1600 dimensions is too long for str()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run_cli(capsys, "dims", "--spec", f"Ao({dimq})", "--count", "1600",
                               "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    dims = [Fraction(n, 2 ** k) for k, n in enumerate(_scaled_ao_dims(Fraction(dimq), 1600))]
    assert len(str(dims[-1].numerator)) > 640
    if fmt == "csv":
        assert out == ",".join(map(str, dims)) + "\n"
        return
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["exact"] for r in rows] == [str(d) for d in dims]
    assert [r["params"]["index"] for r in rows] == list(range(1600))
    last, whole = rows[-1], dims[-1].numerator // dims[-1].denominator
    assert last["value_lo"].split(".")[0] == last["value_hi"].split(".")[0] == str(whole)


def _scaled_ao_dims(dimq, count):
    """2^k m_k for the Ao recursion m_{k+1} = dimq m_k - m_{k-1}, in integers."""
    c = int(2 * dimq)
    out = [1, c]
    while len(out) < count:
        out.append(c * out[-1] - 4 * out[-2])
    return out[:count]


def test_dims_json_records(capsys):
    code, out, _ = run_cli(capsys, "dims", "--spec", "Ao(3)", "--count", "4")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(rows) == 4
    assert rows[3]["exact"] == "21"
    assert set(rows[0]) >= {"cmd", "spec", "params", "quantity", "value_lo", "value_hi", "anchor"}


def test_growth_table(capsys):
    code, out, _ = run_cli(capsys, "growth", "--spec", "Au(3)", "--n-max", "3",
                           "--format", "csv")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "n,cn_lower,first_diff,slope"
    assert lines[1].startswith("1,1/18")
    assert lines[2].startswith("2,1/9,1/18")
    assert lines[3].startswith("3,1/6,1/18,1/18")


def test_tree_dump_structure(capsys):
    code, out, _ = run_cli(capsys, "tree", "--spec", "Au(3)", "--radius", "2")
    rows = [json.loads(line) for line in out.splitlines()]
    vertices = [r for r in rows if "word" in r]
    edges = [r for r in rows if "src" in r]
    assert code == 0
    assert len(vertices) == 7
    assert len(edges) == 2 * (7 - 1)
    assert {"id", "word", "length", "dimq"} == set(vertices[0])
    assert sum(1 for e in edges if e["ascending"]) == 6


def test_paths_unit_weights(capsys):
    code, out, _ = run_cli(capsys, "paths", "--spec", "Au(3)", "--radius", "3",
                           "--unit-weights")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    for r in rows:
        assert r["exact"] == str(2 * r["params"]["length"])


def test_gram_report_includes_decay_constant(capsys):
    code, out, _ = run_cli(capsys, "gram", "--spec", "Ao(3)", "--kmax", "3",
                           "--radius", "30")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert sum(1 for r in rows if r["quantity"] == "gram_entry") == 10
    assert rows[-1]["quantity"] == "decay_constant_D"


def test_rd_norm_weighted_variant(capsys):
    code, out, _ = run_cli(capsys, "rd-norm", "--spec", "Ao(7/2)", "--s", "3",
                           "--r", "2", "--radius", "80")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert rows[0]["quantity"] == "weighted_norm_sq"
    assert float(rows[0]["tail"]) < 1e-10


def test_schur_command(capsys):
    code, out, _ = run_cli(capsys, "schur", "--a", "2", "--size", "20")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert rows[0]["quantity"] == "schur_bound"
    assert float(rows[1]["value_hi"]) <= 3.0


def test_chain_check_command(capsys):
    code, out, _ = run_cli(capsys, "chain-check", "--a", "growth:3", "--count", "50",
                           "--seed", "11")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert rows[0]["exact"] == "0"


@pytest.mark.parametrize("command", ["dims", "tree", "paths", "fixed-vector", "gram",
                                     "growth", "rd-norm"])
def test_missing_spec_is_usage_error(command, capsys):
    code, out, err = run_cli(capsys, command)
    assert code == 2 and out == "" and "--spec is required" in err


def test_spec_may_come_from_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"spec": "Ao(3)"}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "dims", "--count", "3",
                           "--format", "csv")
    assert code == 0 and out == "1,3,8\n"


def test_bad_spec_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "dims", "--spec", "Ao(0.5)", "--count", "3")
    assert code == 2
    assert "dimq below 2" in err


@pytest.mark.parametrize("dimq", ["1", "3/2", "1.99"])
def test_dimq_below_two_is_usage_error(dimq, capsys):
    code, out, err = run_cli(capsys, "paths", "--spec", f"Ao({dimq})", "--radius", "5")
    assert code == 2 and out == "" and "dimq below 2" in err


def test_dimq_two_still_accepted(capsys):
    code, out, _ = run_cli(capsys, "dims", "--spec", "Ao(2)", "--count", "4", "--format", "csv")
    assert code == 0 and out == "1,2,3,4\n"


def test_fixed_vector_negative_radius_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "fixed-vector", "--spec", "Ao(3)", "--radius", "-1")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["rd-norm", "--spec", "Ao(7/2)", "--s", "0", "--r", "2", "--radius", "-2"],
    ["rd-norm", "--spec", "Ao(3)", "--radius", "-1"],
    ["growth", "--spec", "Au(3)", "--n-max", "0"],
    ["growth", "--spec", "Au(3)", "--n-max", "-2"],
    ["rd-norm", "--spec", "Ao(3)", "--r", "1/0"],
    ["rd-norm", "--spec", "Ao(3)", "--s", "1/0"],
    ["schur", "--a", "growth:1/0"],
    ["schur", "--size", "0"],
    ["schur", "--a", "growth:3", "--size", "-3"],
    ["chain-check", "--count", "-5"],
    ["chain-check", "--count", "0"],
    ["schur", "--a", "growth:3", "--size", str(MAX_TOEPLITZ_SIZE + 1)],
])
def test_out_of_domain_values_are_usage_errors(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("flags", [["--k", "2"], ["--l", "2"], ["--kmax", "-1"],
                                   ["--kmax", "2", "--radius", "1"]])
def test_gram_flag_misuse_is_usage_error(flags, capsys):
    code, out, err = run_cli(capsys, "gram", "--spec", "Ao(3)", *flags)
    assert code == 2 and out == "" and err.startswith("error:")


def test_growth_refuses_n_max_past_the_walk_cap_before_any_walk(capsys, monkeypatch):
    import qcayley.cli as cli

    calls = []
    monkeypatch.setattr(cli, "cn_lower", lambda *a, **k: calls.append(a))
    code, out, err = run_cli(capsys, "growth", "--spec", "Au(3)", "--n-max", "30")
    assert code == 2 and out == "" and "cap" in err
    assert calls == []


# s = 1180 is the smallest s whose exact tail ratio at radius 60 has more than
# Python's 4300-digit limit for int-to-str conversion
@pytest.mark.parametrize("s", ["1000", "1180"])
def test_rd_norm_radius_too_small_is_a_short_usage_error(s, capsys):
    code, out, err = run_cli(capsys, "rd-norm", "--spec", "Ao(3)", "--s", s)
    assert code == 2 and out == ""
    assert err == "error: radius 60 too small to certify the tail (term ratio >= 1); increase it\n"
    assert len(err.encode()) < 200


def test_rd_norm_between_dimensions_two_and_three_is_the_unweighted_series(capsys):
    # both doors pass the one growth gate and certify the same series of Ao(5/2)
    rows = []
    for extra in ([], ["--r", "1"]):
        code, out, _ = run_cli(capsys, "rd-norm", "--spec", "Ao(5/2)", "--radius", "60", *extra)
        assert code == 0
        rows.append(json.loads(out.splitlines()[0]))
    plain, weighted = rows
    assert plain["quantity"] == "rd_norm_sq" and weighted["quantity"] == "weighted_norm_sq"
    for key in ("value_lo", "value_hi", "tail"):
        assert plain[key] == weighted[key], key


@pytest.mark.parametrize("extra", [[], ["--r", "1"]], ids=["rd_norm_sq", "r=1"])
def test_rd_norm_just_above_dimension_two_needs_a_larger_radius(extra, capsys):
    # a = 1.032...: at the default radius 60 the term ratio (64/63)^6 / a^2 is about 1.03
    code, out, err = run_cli(capsys, "rd-norm", "--spec", "Ao(2001/1000)", *extra)
    assert code == 2 and out == ""
    assert err == "error: radius 60 too small to certify the tail (term ratio >= 1); increase it\n"


def test_gate_error_surfaced_verbatim(capsys):
    code, _, err = run_cli(capsys, "fixed-vector", "--spec", "Ao(2)", "--radius", "5")
    assert code == 2
    assert "dimension" in err and "2" in err


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": "csv", "spec": "Ao(3)", "count": 6}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "dims")
    assert code == 0 and out == "1,3,8,21,55,144\n"
    # explicit flag wins over the config value
    code, out, _ = run_cli(capsys, "--config", str(cfg), "dims", "--format", "json")
    assert code == 0 and out.startswith("{")


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "dims.csv"
    code = main(["dims", "--spec", "Ao(3)", "--count", "6", "--format", "csv",
                 "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "1,3,8,21,55,144\n"


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "dims", "--spec", "Ao(3)")
    assert code == 2 and "unknown config keys" in err


def run_config(tmp_path, capsys, config, *argv):
    """main() with `config` as the --config file; argparse's SystemExit gives the code."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    try:
        code = main(["--config", str(cfg), *argv])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("config, argv", [
    ({"radius": "abc"}, ["paths", "--spec", "Ao(3)"]),
    ({"count": 3.0}, ["dims", "--spec", "Ao(3)"]),
    ({"count": None}, ["dims", "--spec", "Ao(3)"]),
    ({"spec": 3}, ["dims"]),
    ({"profile": "nope"}, ["verify"]),
    ({"max_vertices": "x"}, ["tree", "--spec", "Ao(3)"]),
    ({"size": True}, ["schur"]),
    ({"seed": "x"}, ["chain-check"]),
    ({"format": "xml"}, ["dims", "--spec", "Ao(3)"]),
])
def test_config_values_are_checked_as_their_flags_are(config, argv, tmp_path, capsys):
    code, out, err = run_config(tmp_path, capsys, config, *argv)
    assert code == 2 and out == "" and "Traceback" not in err


@pytest.mark.parametrize("config, argv, flags", [
    ({"r": 1.1}, ["rd-norm", "--spec", "Ao(7/2)"], ["--r", "1.1"]),
    ({"seed": "11"}, ["chain-check", "--count", "20"], ["--seed", "11"]),
    ({"a": 1.5}, ["schur", "--size", "7"], ["--a", "1.5"]),
    ({"tolerance": 1e-20}, ["schur", "--a", "growth:3", "--size", "7"],
     ["--tolerance", "1e-20"]),
])
def test_config_value_reads_as_the_flag_text(config, argv, flags, tmp_path, capsys):
    code, out, _ = run_config(tmp_path, capsys, config, *argv)
    assert (code, out) == run_cli(capsys, *argv, *flags)[:2]
    assert code == 0


def test_config_output_is_a_file_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_config(tmp_path, capsys, {"output": 1}, "dims", "--spec", "Ao(3)",
                              "--count", "3", "--format", "csv")
    assert code == 0 and out == ""
    assert (tmp_path / "1").read_text() == "1,3,8\n"


def test_config_key_the_command_does_not_read_is_ignored(tmp_path, capsys):
    code, out, _ = run_config(tmp_path, capsys, {"radius": "abc"}, "dims", "--spec", "Ao(3)",
                              "--count", "3", "--format", "csv")
    assert code == 0 and out == "1,3,8\n"


@pytest.mark.parametrize("config", [{"k": 2}, {"l": 2}, {"unit_weights": True},
                                    [["spec", "Ao(3)"]]])
def test_config_flag_only_keys_and_non_objects_are_refused(config, tmp_path, capsys):
    code, out, err = run_config(tmp_path, capsys, config, "gram", "--spec", "Ao(3)")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("config_flags", [["--config={}"], ["--conf", "{}"]])
def test_config_flag_forms_before_the_command(config_flags, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"spec": "Ao(3)", "format": "csv", "count": 6}))
    src = str(Path(qcayley.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-m", "qcayley.cli",
                          *(f.format(cfg) for f in config_flags), "dims", "--count", "3"],
                         capture_output=True, timeout=600, env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout == b"1,3,8\n"


def test_package_runs_as_a_module():
    golden = json.loads(Path(__file__).with_name("golden_cli.json").read_text())["dims-csv"]
    src = str(Path(qcayley.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-m", "qcayley", *golden["argv"]],
                         capture_output=True, timeout=600, env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == golden["exit"] == 0, res.stderr.decode()
    assert res.stdout.decode() == golden["stdout"]


def test_verify_quick_profile_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--profile", "quick", "--seed", "7")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("criterion")]
    assert len(lines) == 10
    assert all(" PASS " in l for l in lines)


def test_verify_deterministic_bytes():
    cmd = [sys.executable, "-m", "qcayley.cli", "verify", "--profile", "quick",
           "--seed", "7"]
    env = {**os.environ, "PYTHONPATH": str(Path(qcayley.__file__).resolve().parents[1])}
    first = subprocess.run(cmd, capture_output=True, timeout=600, env=env)
    second = subprocess.run(cmd, capture_output=True, timeout=600, env=env)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def test_schur_and_criterion_4_import_no_numpy():
    # a lazy import would bring the dependency back without failing anything else
    code = ("import sys\n"
            "from qcayley import verify\n"
            "from qcayley.cli import main\n"
            "assert main(['schur', '--a', 'growth:3']) == 0\n"
            "assert verify.run_criterion(4, 'quick').passed\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    src = str(Path(qcayley.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=600,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr.decode()


@pytest.mark.parametrize("value, text", [
    (Fraction(0), "0"), (Fraction(5), "5"), (-3, "-3"), (Fraction(7, 2), "7/2"),
    (Fraction(-9, 4), "-9/4"),
])
def test_format_rational(value, text):
    assert _text(value) == text


_DIMQ_LITERALS = ["0", "1", "3/2", "2", "5/2", "3", "7/2", "4.5", "-3", "1/0", "x", ""]
_FUZZ_SPECS = st.one_of(
    st.lists(st.tuples(st.sampled_from(["Ao", "Au"]), st.sampled_from(_DIMQ_LITERALS)),
             min_size=1, max_size=2).map(lambda fs: "*".join(f"{k}({d})" for k, d in fs)),
    st.text(alphabet="Aou()*/.-0123456789 ", max_size=12),
)
_SMALL = st.integers(-3, 4)


@st.composite
def _fuzz_argv(draw):
    spec = draw(_FUZZ_SPECS)
    command = draw(st.sampled_from(["dims", "tree", "paths", "fixed-vector", "gram",
                                    "growth", "rd-norm"]))
    argv = [command, "--spec", spec]
    if command == "dims":
        argv += ["--count", str(draw(_SMALL))]
    elif command == "growth":
        argv += ["--n-max", str(draw(_SMALL))]
    elif command == "gram":
        argv += ["--kmax", str(draw(_SMALL)), "--radius", str(draw(st.integers(-3, 12)))]
        if draw(st.booleans()):
            argv += ["--k", str(draw(_SMALL))]
        if draw(st.booleans()):
            argv += ["--l", str(draw(_SMALL))]
    elif command == "rd-norm":
        argv += ["--radius", str(draw(st.integers(-3, 12)))]
        if draw(st.booleans()):
            argv += ["--r", draw(st.sampled_from(_DIMQ_LITERALS))]
    else:
        argv += ["--radius", str(draw(_SMALL))]
    return argv


@given(_fuzz_argv())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_fuzz_exits_cleanly(argv):
    """Any spec, radius, weight base or dimq literal is computed or refused: exit 0, 1
    or 2, no traceback; a negative radius or an --n-max below 1 is always refused."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    flags = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] in ("rd-norm", "fixed-vector", "tree", "paths") and int(flags["--radius"]) < 0 \
            or argv[0] == "growth" and int(flags["--n-max"]) < 1:
        assert code == 2, argv


_CONFIG_LITERALS = ["Ao(3)", "Au(3)", "Ao(7/2)", "Ao(3)*Au(3)", "3/2", "growth:3", "1e-30",
                    "json", "csv", "quick", "-1", "0", "12"]
_CONFIG_INT = st.integers(-3, 12)
# no "/" in drawn text: a drawn "output" is a file name relative to the test's directory
_CONFIG_VALUES = st.one_of(
    st.sampled_from(_CONFIG_LITERALS), st.text(alphabet="Aou()*:.ex-", max_size=6),
    _CONFIG_INT, st.floats(-3, 12), st.booleans(), st.none(), st.lists(_CONFIG_INT, max_size=2),
)


@given(command=st.sampled_from(["dims", "tree", "paths", "fixed-vector", "gram", "growth",
                                "rd-norm", "schur", "chain-check"]),
       drawn=st.dictionaries(st.sampled_from(_CONFIG_KEYS + ("bogus",)), _CONFIG_VALUES,
                             max_size=4),
       max_vertices=_CONFIG_INT, count=_CONFIG_INT)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
def test_cli_config_fuzz_exits_cleanly(command, drawn, max_vertices, count, tmp_path,
                                       monkeypatch):
    """Any config value is computed or refused: exit 0, 1 or 2, no traceback; exit 1 is a
    verification failure, which only schur and chain-check report."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"max_vertices": max_vertices, "count": count, **drawn}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["--config", str(cfg), command])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (command, drawn, code)
    assert "Traceback" not in err.getvalue()
    assert code != 1 or command in ("schur", "chain-check"), (command, drawn)
