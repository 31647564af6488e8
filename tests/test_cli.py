"""Command-line behaviour: formats, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wigcorr import __version__, cli, selftest
from wigcorr.egf_engine import SaddleData, edge_points
from wigcorr.errors import CancellationError
from wigcorr.exact_oracle import EnsembleKind, gaussian_profile, oracle_f
from wigcorr.kernels import airy_kernel
from wigcorr.selftest import Margin

HEADER = "N,log10_f,sign,scaled,limit,abs_err,condition"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kernel_csv_shape(capsys):
    code, out, err = run(capsys, ["kernel", "--alpha", "1"])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert len(cells) == 7
    assert float(cells[3]) == pytest.approx(airy_kernel(0.0, 0.0), rel=1e-13)
    assert float(cells[5]) < 1e-10  # closed form vs quadrature
    assert "\r" not in out


def test_kernel_order_zero_compares_the_line_rule_with_the_closed_form(capsys):
    # at (10, 10) the line rule gives 1.2036e-20 against Ai(10)^2 = 1.2205e-20
    code, out, _ = run(capsys, ["kernel", "--alpha", "0", "--mu", "10", "--nu", "10"])
    assert code == 0
    assert float(out.splitlines()[1].split(",")[5]) > 1e-22


def test_csv_and_json_carry_identical_numbers(capsys):
    args = ["edge", "--alpha", "1", "--n-list", "4,8", "--deterministic"]
    code, out_csv, _ = run(capsys, args + ["--format", "csv"])
    assert code == 0
    code, out_json, _ = run(capsys, args + ["--format", "json"])
    assert code == 0
    payload = json.loads(out_json)
    data_lines = out_csv.splitlines()[1:]
    assert len(data_lines) == len(payload["rows"]) == 2
    for line, row in zip(data_lines, payload["rows"]):
        cells = line.split(",")
        assert int(cells[0]) == row["N"]
        assert float(cells[1]) == row["log10_f"]
        assert int(cells[2]) == row["sign"]
        assert float(cells[3]) == row["scaled"]
        assert float(cells[4]) == row["limit"]
        assert float(cells[5]) == row["abs_err"]
        assert float(cells[6]) == row["condition"]
    assert payload["version"] == __version__
    assert payload["params"]["alpha"] == 1.0
    assert payload["params"]["n_list"] == [4, 8]


def test_edge_diagnostics(capsys):
    code, out, _ = run(
        capsys,
        ["edge", "--n-list", "8,16,32", "--format", "json", "--deterministic"],
    )
    assert code == 0
    diag = json.loads(out)["diagnostics"]
    assert len(diag["contour_radius"]) == 3
    assert len(diag["contour_points"]) == 3
    assert "error_slope" in diag
    assert diag["error_slope"] < 0.0  # errors shrink with size
    assert "elapsed_seconds" not in diag


def test_bulk_diagnostics_name_the_recurrence_route(capsys):
    code, out, _ = run(
        capsys,
        ["bulk", "--n-list", "8,16", "--format", "json", "--deterministic"],
    )
    assert code == 0
    assert json.loads(out)["diagnostics"] == {"route": "recurrence"}


def test_elapsed_seconds_present_by_default(capsys):
    code, out, _ = run(capsys, ["kernel", "--format", "json"])
    assert code == 0
    assert "elapsed_seconds" in json.loads(out)["diagnostics"]


def test_deterministic_runs_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    argv = [
        "mc", "--n", "2", "--samples", "300", "--seed", "5",
        "--mu", "0.3", "--nu", "-0.2", "--format", "json", "--deterministic",
    ]
    for p in paths:
        code = cli.main(argv + ["--out", str(p)])
        assert code == 0
    capsys.readouterr()
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    assert b"\r" not in a


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["bulk", "--n-list", "8,16", "--deterministic"]
    out_path = tmp_path / "table.csv"
    assert cli.main(argv + ["--out", str(out_path)]) == 0
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == out


def test_oracle_command_agrees_with_extraction(capsys):
    code, out, _ = run(
        capsys,
        ["oracle", "--n-list", "1,2", "--mu", "0.4", "--nu", "-0.6",
         "--format", "json", "--deterministic"],
    )
    assert code == 0
    payload = json.loads(out)
    # scaled column holds the exact value, limit the extraction route
    for row in payload["rows"]:
        assert row["abs_err"] < 1e-10
    assert payload["params"]["bstar"] == 0.0
    assert payload["params"]["moments"]["m4"] == 0.75


def test_oracle_rejects_large_n(capsys):
    code, out, err = run(capsys, ["oracle", "--n", "7"])
    assert code == 3
    assert out == ""
    assert "oracle_f order 7 outside [1, 6]" in err


def test_mc_f_stat_columns(capsys):
    code, out, _ = run(
        capsys,
        ["mc", "--n", "3", "--samples", "2000", "--format", "json",
         "--deterministic"],
    )
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["limit"] == 1.0
    # ratio of estimate to oracle within a loose noise band
    assert abs(row["scaled"] - 1.0) < 6.0 * row["condition"]
    comp = payload["diagnostics"]["comparison"][0]
    assert comp["reference_route"] == "oracle"
    assert abs(comp["z_score"]) < 6.0


def test_mc_sigma_stat(capsys):
    code, out, _ = run(
        capsys,
        ["mc", "--n", "4", "--samples", "2000", "--stat", "sigma",
         "--mu", "0.0", "--nu", "1.0", "--format", "json", "--deterministic"],
    )
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert abs(row["scaled"] - row["limit"]) < 6.0 * row["condition"]
    assert "batch_spread" in payload["diagnostics"]["comparison"][0]


def test_corr_command(capsys):
    code, out, _ = run(
        capsys,
        ["corr", "--n-list", "16,32", "--nu", "1.0", "--format", "json",
         "--deterministic"],
    )
    assert code == 0
    payload = json.loads(out)
    for row in payload["rows"]:
        assert 0.0 < row["scaled"] <= 1.0
        assert 0.0 < row["limit"] <= 1.0


def test_corr_extracts_each_coefficient_once(monkeypatch, capsys):
    # the row's raw value is the f_cross of the correlation, so one size
    # costs three extractions: f_cross, f_mumu and f_nunu
    from wigcorr import egf_engine

    jobs = []
    real = egf_engine.extract_f

    def counting(job):
        jobs.append(job)
        return real(job)

    monkeypatch.setattr(egf_engine, "extract_f", counting)
    code, _, _ = run(capsys, ["corr", "--n", "16", "--nu", "1.0", "--deterministic"])
    assert code == 0
    assert len(jobs) == len(set(jobs)) == 3


def test_bulk_flagged_rows(monkeypatch, capsys):
    def refuse(alpha, bstar, xi, mu, nu, n):
        raise CancellationError("forced refusal")

    monkeypatch.setattr(cli, "bulk_scaled_full", refuse)
    code, out, _ = run(
        capsys,
        ["bulk", "--n-list", "8,16", "--format", "json", "--deterministic"],
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["diagnostics"]["flagged_rows"] == [8, 16]
    for row in payload["rows"]:
        assert row["sign"] == 0
        assert row["scaled"] == 0.0
        assert row["condition"] == cli._REFUSED_CONDITION == 1e12


def test_bulk_row_refused_by_the_recurrence_reads_the_condition_limit(monkeypatch, capsys):
    from wigcorr import egf_engine

    monkeypatch.setattr(egf_engine, "_recurrence_f", lambda params, n: (1, 0.0, 2e-15))
    code, out, err = run(
        capsys,
        ["bulk", "--n-list", "8", "--format", "json", "--deterministic"],
    )
    assert code == 2
    assert "recurrence error estimate" in err
    row, = json.loads(out)["rows"]
    assert row["sign"] == 0
    assert row["condition"] == cli._REFUSED_CONDITION == 1e12


@pytest.mark.parametrize("command, target, extra", [
    ("edge", "edge_scaled_full", []),
    ("corr", "edge_scaled_full", ["--nu", "1.0"]),
    ("oracle", "extract_f", []),
    ("mc", "estimate_f", ["--samples", "200"]),
])
def test_row_refusal_flags_the_row(monkeypatch, capsys, command, target, extra):
    def refuse(*args, **kwargs):
        raise CancellationError("forced refusal")

    monkeypatch.setattr(cli, target, refuse)
    code, out, _ = run(
        capsys,
        [command, "--n-list", "2,3", "--format", "json", "--deterministic"]
        + extra,
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["diagnostics"]["flagged_rows"] == [2, 3]
    assert [row["N"] for row in payload["rows"]] == [2, 3]
    for row in payload["rows"]:
        assert row["sign"] == 0
        assert row["scaled"] == 0.0
        assert row["condition"] == cli._REFUSED_CONDITION == 1e12


def test_edge_keeps_rows_after_a_refused_one(capsys):
    # f_1 is exactly 0 at these edge points, so its row is refused; the
    # N = 2 row must still be computed and match the exact expansion.
    code, out, err = run(
        capsys,
        ["edge", "--n-list", "1,2", "--mu", "-1", "--nu", "-3",
         "--format", "json", "--deterministic"],
    )
    assert code == 2
    assert err.startswith("wigcorr: row N = 1 refused: ")
    payload = json.loads(out)
    assert payload["diagnostics"]["flagged_rows"] == [1]
    first, second = payload["rows"]
    assert (first["N"], first["sign"], second["N"]) == (1, 0, 2)
    kind = EnsembleKind.HERMITIAN
    exact = oracle_f(kind, gaussian_profile(kind), 2, *edge_points(2, -1.0, -3.0))
    got = second["sign"] * 10.0 ** second["log10_f"]
    assert abs(got - exact) <= 1e-10 * abs(exact)


def test_mc_keeps_rows_after_an_exact_zero_reference(capsys):
    # f_1(1, -1) is exactly 0, so the N = 1 ratio has no reference; its
    # row is flagged and the N = 3 row is still printed.
    code, out, err = run(
        capsys,
        ["mc", "--n-list", "1,3", "--mu", "1", "--nu", "-1", "--samples", "1000",
         "--format", "json", "--deterministic"],
    )
    assert code == 2
    assert err.startswith("wigcorr: row N = 1 refused: oracle reference is exactly zero")
    payload = json.loads(out)
    assert payload["diagnostics"]["flagged_rows"] == [1]
    first, second = payload["rows"]
    assert (first["N"], first["sign"], second["N"]) == (1, 0, 3)
    assert second["sign"] != 0 and second["condition"] < 1.0


def test_mc_row_of_products_that_are_all_zero(capsys):
    code, out, err = run(
        capsys,
        ["mc", "--ensemble", "symmetric", "--dist", "rademacher", "--n", "1",
         "--samples", "100", "--mu", "1.4142135623730951",
         "--nu", "-1.4142135623730951", "--format", "json", "--deterministic"],
    )
    assert (code, err) == (0, "")
    row, = json.loads(out)["rows"]
    assert (row["N"], row["sign"], row["scaled"]) == (1, 0, 0.0)


@pytest.mark.parametrize("command", ["edge", "bulk", "corr", "oracle", "mc"])
@pytest.mark.parametrize("sizes", [["--n", "0"], ["--n-list=-1,5"]])
def test_table_commands_refuse_nonpositive_sizes(command, sizes, capsys):
    # each command's own order rule refuses the first size
    code, out, err = run(capsys, [command, *sizes])
    assert code == 3
    assert out == ""
    first = sizes[-1].split("=")[-1].split(",")[0]  # "0" or "-1"
    assert f"{first} outside [1, " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["edge", "--n", "8", "--bstar", "800"],
    ["bulk", "--n", "8", "--bstar", "800"],
    ["corr", "--n", "8", "--bstar", "1e300"],
])
def test_arguments_that_overflow_a_double_exit_three(argv, capsys):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("wigcorr: a value left double range")
    assert "Traceback" not in err


def test_largest_bstar_inside_double_range_still_runs(capsys):
    code, out, _ = run(capsys, ["edge", "--n", "8", "--bstar", "709"])
    assert code == 0
    assert len(out.splitlines()) == 2


def test_failed_selftest_bound_shows_its_margin(monkeypatch):
    forced = [Margin("forced bound", 2.5, 1e-3, 0.0)]
    monkeypatch.setattr(selftest, "GROUPS", [("forced", lambda fast: forced)])
    lines = []
    assert selftest.run(fast=True, emit=lines.append) == 2
    assert lines[0] == "FAIL forced (0.0s): forced bound 2.5 <= 0.001"


@pytest.mark.parametrize("argv", [
    ["edge", "--n", "8", "--fast"],
    ["selftest", "--mu", "3", "--format", "json"],
    # the ensemble and entry law fix alpha and bstar
    ["oracle", "--n", "2", "--alpha", "3"],
    ["oracle", "--n", "2", "--bstar", "1"],
    ["mc", "--n", "2", "--samples", "200", "--alpha", "2"],
    ["mc", "--n", "2", "--samples", "200", "--bstar", "1"],
    # a kernel value has no matrix size; --n must not pass for --nu
    ["kernel", "--n", "5"],
    ["kernel", "--n-list", "5,6"],
    # a kernel value carries no exp(bstar) prefactor
    ["kernel", "--bstar", "1"],
])
def test_options_of_other_subcommands_exit_three(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 3


def test_missing_size_is_usage_error(capsys):
    code, out, err = run(capsys, ["edge"])
    assert code == 3
    assert "pass --n or --n-list" in err


def test_unsorted_sizes_rejected(capsys):
    code, _, err = run(capsys, ["edge", "--n-list", "16,8"])
    assert code == 3
    assert "ascending" in err


def test_bad_subcommand_exits_three(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 3


def test_bad_flag_value_exits_three(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["edge", "--n-list", "4,x"])
    assert info.value.code == 3


def test_negative_seed_exits_three(capsys):
    code, out, err = run(capsys, [
        "mc", "--n", "2", "--samples", "200", "--seed", "-1",
        "--mu", "0.3", "--nu", "-0.7",
    ])
    assert code == 3
    assert out == ""
    assert "seed" in err


def test_selftest_dispatch(monkeypatch):
    calls = {}

    def fake_run(fast=False):
        calls["fast"] = fast
        return 7

    monkeypatch.setattr(cli, "selftest_run", fake_run)
    assert cli.main(["selftest", "--fast"]) == 7
    assert calls["fast"] is True
    assert cli.main(["selftest"]) == 7
    assert calls["fast"] is False


@pytest.mark.parametrize("argv, unbuffered", [
    (["selftest", "--fast"], True),
    (["edge", "--n-list", "125,1000", "--deterministic"], True),
    (["edge", "--n-list", "125,1000", "--deterministic"], False),
])
def test_closed_stdout_ends_output_quietly(argv, unbuffered):
    # The reader is gone before the run starts, so the first write, or
    # with block buffering the last flush, meets a closed pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run([sys.executable, "-m", "wigcorr.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out
