"""End-to-end checks of the command-line front end.

Everything runs in-process through ``main(argv)``, which returns the exit
code, so there is no subprocess overhead and capsys sees the output.
"""
import argparse
import ast
import hashlib
import json
import os
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from lilbound import Sample, estimate_norms, phi2, verify
from lilbound.cli import (EXIT_CENSORED, EXIT_DIVERGENT, EXIT_DOMAIN,
                          EXIT_OK, RunConfig, load_config, main, parse_grid)
from lilbound.errors import DomainError


def run_cli(capsys, argv):
    """Invoke the CLI and return (exit_code, stdout, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    """Parse one of our output files into (header, rows of floats)."""
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# conjugate
# ---------------------------------------------------------------------------

def test_conjugate_stdout_exact(capsys):
    """The quadratic conjugate at 0, 1, 2 is exactly 0, 1/2, 2."""
    code, out, _ = run_cli(capsys, ["conjugate", "--phi", "phi2",
                                    "--u", "0,1,2"])
    assert code == EXIT_OK
    assert out == "u,phi_star\n0,0\n1,0.5\n2,2\n"


def test_cosh_conjugate_at_small_u_keeps_its_digits(capsys):
    # u asinh(u) - sqrt(1 + u^2) + 1 = u^2/2 - u^4/24 + O(u^6)
    code, out, _ = run_cli(capsys, ["conjugate", "--phi", "cosh",
                                    "--u", "1e-6"])
    assert code == EXIT_OK
    u, value = (float(c) for c in out.split("\n")[1].split(","))
    assert value == pytest.approx(u * u / 2 - u ** 4 / 24, rel=4e-16)


def test_conjugate_json_flag(capsys):
    code, out, _ = run_cli(capsys, ["conjugate", "--phi", "phi2",
                                    "--u", "0,1,2", "--json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["u"] == [0.0, 1.0, 2.0]
    assert payload["phi_star"] == [0.0, 0.5, 2.0]


def test_conjugate_out_dir_twins(tmp_path, capsys):
    """conjugate.csv and conjugate.json carry identical numbers."""
    code, _, _ = run_cli(capsys, ["conjugate", "--phi", "power:q=3",
                                  "--u", "0.5,1,4,9",
                                  "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "conjugate.csv")
    assert header == ["u", "phi_star"]
    payload = json.loads((tmp_path / "conjugate.json").read_text())
    assert payload["phi"] == "power:q=3"
    for row, u, val in zip(rows, payload["u"], payload["phi_star"]):
        assert row == [u, val]  # %.17g round-trips float64 exactly


def test_chi2_conjugate_and_bound_stay_finite_at_huge_levels(tmp_path,
                                                              capsys):
    code, out, _ = run_cli(capsys, ["conjugate", "--phi", "chi2",
                                    "--u", "1e308"])
    assert code == EXIT_OK
    # the correctly rounded value of (s - log1p(s))/2, s = sqrt2 * 1e308,
    # by 50-digit arithmetic
    assert out == "u,phi_star\n1e+308,7.0710678118654757e+307\n"
    code, out, _ = run_cli(capsys, [
        "bound", "--model", "chaos:d=2", "--norming", "vr:1",
        "--u-grid", "1e15,1e16,1e17", "--ratio-grid", "4",
        "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert "nan" not in out
    _, rows = read_csv(tmp_path / "bound.csv")
    assert [row[1] for row in rows] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("phi", ["power:q=3", "phi2"])
def test_power_conjugate_past_float_range_is_inf_and_silent(phi, capsys):
    # any warning, numpy's overflow included, fails the run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["conjugate", "--phi", phi,
                                          "--u", "1e300"])
    assert code == EXIT_OK
    assert out == "u,phi_star\n1.0000000000000001e+300,inf\n"
    assert err == ""


def test_conjugate_rejects_negative_point(capsys):
    code, _, err = run_cli(capsys, ["conjugate", "--phi", "phi2",
                                    "--u", "1,-2"])
    assert code == EXIT_DOMAIN
    assert "error:" in err


@pytest.mark.parametrize("argv, registry_hint", [
    (["conjugate", "--phi", "exp", "--u", "1"], "phi2"),
    (["bound", "--norming", "poly:2"], "vr:R"),
    (["bound", "--model", "brownian"], "chaos:d=D"),
    (["bound", "--sigma", "table:x"], "powerlaw:gamma=G"),
])
def test_unknown_ids_name_their_registry(capsys, argv, registry_hint):
    """A typo in any id exits 2 and echoes the registry of valid ids."""
    code, _, err = run_cli(capsys, argv)
    assert code == EXIT_DOMAIN
    assert registry_hint in err


def test_bad_number_in_an_id_exits_2(tmp_path, tmp_path_factory, capsys):
    """A malformed number inside an id, an input file that is not a table
    of numbers, or an output directory that cannot be made is one line on
    stderr and exit 2."""
    inputs = tmp_path_factory.mktemp("inputs")
    sample = inputs / "sample.csv"
    sample.write_text("x\n1.0\n-1.0\n")
    table = inputs / "table.csv"
    table.write_text("lambda,phi\n0,0\n1,0.5\n2,2\n3,4.5\n")
    for argv, bad in [
            (["bound", "--norming", "vr:abc"], "abc"),
            (["bound", "--model", "chaos:d=x"], "x"),
            (["bound", "--phi", "power:q=abc"], "abc"),
            (["conjugate", "--phi", "phi2", "--u", "abc"], "abc"),
            (["bound", "--norming", "vr:nan"], "nan"),
            (["conjugate", "--phi", "phi2", "--u", "1,inf"], "inf"),
            (["norm", "--sample", str(sample)], str(sample)),
            (["bound", "--phi", f"csv:{table}"], str(table)),
            (["conjugate", "--phi", f"csv:{table}", "--u", "1"], str(table)),
            (["norm", "--sample", str(inputs)], str(inputs)),
            (["bound", "--phi", f"csv:{inputs}"], str(inputs)),
            (["bound", "--u-grid", "3", "--out-dir", str(sample)],
             str(sample)),
            (["conjugate", "--phi", "phi2", "--u", "1",
              "--out-dir", str(sample / "x")], str(sample / "x"))]:
        # a case's own --out-dir comes later on the line and wins
        code, out, err = run_cli(capsys, argv[:1] + [
            "--out-dir", str(tmp_path)] + argv[1:])
        assert code == EXIT_DOMAIN, argv
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(bad) in err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------

def test_norm_on_gaussian_sample(tmp_path, capsys):
    sample = tmp_path / "sample.csv"
    values = np.random.default_rng(11).standard_normal(4000)
    sample.write_text("# synthetic gaussian\n"
                      + "\n".join(f"{x:.9f}" for x in values) + "\n")
    code, out, _ = run_cli(capsys, ["norm", "--sample", str(sample),
                                    "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert "b_norm=" in out and "g_norm=" in out
    header, rows = read_csv(tmp_path / "norms.csv")
    assert header[:2] == ["b_norm", "g_norm"]
    b_norm = rows[0][0]
    assert 0.85 < b_norm < 1.15, f"gaussian b-norm should be near 1: {b_norm}"
    payload = json.loads((tmp_path / "norms.json").read_text())
    assert payload["sample_size"] == 4000


def test_norm_missing_sample_file(capsys):
    code, _, err = run_cli(capsys, ["norm", "--sample", "/nonexistent.csv"])
    assert code == EXIT_DOMAIN
    assert "error:" in err


def test_norm_of_an_uncentered_sample_near_the_float_range_exits_2(
        tmp_path, capsys):
    """A sum past the float range no longer reads as a centered sample
    with g_norm=inf: the mean 1e308 is found, and the run exits 2."""
    sample = tmp_path / "big.csv"
    sample.write_text("1e308\n1e308\n1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["norm", "--sample", str(sample)])
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "1e+308" in err


@pytest.mark.parametrize("unit,scale", [([1.0, -1.0, 3.0, -3.0], 1e200),
                                        ([1.0, 1.0, -1.0, -1.0], 1e308)])
def test_norm_of_a_centered_sample_near_the_float_range_is_finite(
        tmp_path, capsys, unit, scale):
    """The mean and moments are taken on the sample over a power of two,
    so neither norm overflows where the raw sums and powers do."""
    sample = tmp_path / "wide.csv"
    sample.write_text("".join(f"{x * scale!r}\n" for x in unit))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, ["norm", "--sample", str(sample),
                                        "--out-dir", str(tmp_path)])
    assert code == EXIT_OK, err
    d = json.loads((tmp_path / "norms.json").read_text())
    want = estimate_norms(Sample(np.array(unit)), phi2())
    assert d["b_norm"] == pytest.approx(want.b_norm * scale, rel=1e-12)
    assert d["g_norm"] == pytest.approx(want.g_norm * scale, rel=1e-12)


@pytest.mark.parametrize("content", ["", "# lambda,phi\n# nothing yet\n"])
def test_input_file_without_numbers_exits_2(tmp_path, capsys, content):
    """An empty or comments-only input file is one stderr line naming the
    file, with no numpy warning before it."""
    path = tmp_path / "empty.csv"
    path.write_text(content)
    for argv in (["norm", "--sample", str(path)],
                 ["conjugate", "--phi", f"csv:{path}", "--u", "1"]):
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_DOMAIN, argv
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert repr(str(path)) in err and "no numbers" in err


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_writes_decreasing_grid(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [
        "bound", "--u-grid", "log:2:6:5", "--ratio-grid", "log:2:8:6",
        "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert "minimal bound" in out
    header, rows = read_csv(tmp_path / "bound.csv")
    assert header == ["u", "bound", "ratio_chosen", "k_used"]
    bounds = [r[1] for r in rows]
    assert len(bounds) == 5
    assert all(b > 0 for b in bounds)
    assert all(a >= b for a, b in zip(bounds, bounds[1:])), \
        "bound must not increase along an increasing u grid"
    payload = json.loads((tmp_path / "bound.json").read_text())
    assert payload["config"]["u_grid"] == "log:2:6:5"


@pytest.mark.parametrize("flag,spec", [
    ("--u-grid", "nan,3"), ("--u-grid", "3,inf"), ("--u-grid", "log:1:8:0"),
    ("--u-grid", ","), ("--ratio-grid", "nan"), ("--ratio-grid", "4,inf")])
def test_bound_rejects_nonfinite_or_empty_grid(tmp_path, capsys, flag, spec):
    argv = ["bound", "--u-grid", "3", "--ratio-grid", "4",
            "--out-dir", str(tmp_path)]
    argv[argv.index(flag) + 1] = spec
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_DOMAIN
    assert "nan" not in out
    assert err.startswith("error:")
    assert not (tmp_path / "bound.json").exists()


def test_bound_divergent_norming_exits_4(tmp_path, capsys):
    """A constant norming cannot absorb the growing sums: exit 4."""
    code, _, err = run_cli(capsys, [
        "bound", "--norming", "const:1", "--u-grid", "3,4",
        "--out-dir", str(tmp_path)])
    assert code == EXIT_DIVERGENT
    assert "diverges" in err
    # the report is still written so the failure can be inspected
    assert (tmp_path / "bound.json").exists()


def test_bound_with_overflowing_norming_is_silent(tmp_path, capsys):
    """vr:0.0001 overflows v to +inf at deep blocks, and u = 1e308 the
    levels u * x_k (and a table's edge value), where the block term is
    exactly 0: exit 0 and nothing on stderr, not even a numpy
    warning."""
    table = tmp_path / "phi.csv"
    table.write_text("".join(f"{i / 20.0!r},{(i / 20.0) ** 2 / 2.0!r}\n"
                             for i in range(801)))
    for argv in (["--model", "chaos:d=1", "--norming", "vr:0.0001"],
                 ["--u-grid", "1e308"],
                 ["--model", "weightedA:beta=1", "--u-grid", "1e308"],
                 ["--phi", f"csv:{table}", "--u-grid", "1e308"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, ["bound", *argv, "--out-dir",
                                            str(tmp_path)])
        assert code == EXIT_OK, argv
        assert err == "", argv


def test_bound_with_overflowing_sigma_profile_exits_2(tmp_path, capsys):
    """log sigma overflows to +inf at both ends of the deep blocks, so
    their arguments are inf/inf: exit 2 with one line, not a NaN bound."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, [
            "bound", "--sigma", "powerlaw:gamma=1e308", "--u-grid", "2,3",
            "--out-dir", str(tmp_path)])
    assert code == EXIT_DOMAIN
    assert len(err.splitlines()) == 1
    assert "powerlaw" in err
    assert not (tmp_path / "bound.json").exists()


def test_bound_with_cosh_at_subnormal_levels_exits_4_in_one_line(
        tmp_path, capsys):
    """Deep blocks of vr:0.003 reach the cosh conjugate at u = +inf,
    whose term is 0: the bound diverges with exit 4 and one stderr
    line, and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, [
            "bound", "--phi", "cosh", "--norming", "vr:0.003",
            "--u-grid", "5e-324,1e-300", "--out-dir", str(tmp_path)])
    assert code == EXIT_DIVERGENT
    assert len(err.splitlines()) == 1
    assert "diverges" in err


def test_bound_on_tabulated_generator(tmp_path, capsys):
    """--phi csv:PATH with a lambda^2/2 table tracks --phi phi2."""
    table = tmp_path / "phi.csv"
    lams = np.arange(801) / 20.0
    np.savetxt(table, np.column_stack([lams, lams * lams / 2.0]),
               delimiter=",", fmt="%.17g")
    payloads = []
    for phi in (f"csv:{table}", "phi2"):
        out = tmp_path / phi.split(":")[0]
        code, _, _ = run_cli(capsys, [
            "bound", "--phi", phi, "--u-grid", "3", "--ratio-grid", "4",
            "--out-dir", str(out)])
        assert code == EXIT_OK
        payloads.append(json.loads((out / "bound.json").read_text()))
    numeric, analytic = payloads
    assert numeric["flag"] == analytic["flag"]
    assert numeric["k_used"] == analytic["k_used"]
    assert numeric["bound"] == pytest.approx(analytic["bound"], rel=1e-5)


@pytest.mark.parametrize("rows", [
    "0,0\n1,0.5\n2,2\n3,inf\n", "0,0\n1,0.5\n2,nan\n3,4.5\n",
    "0,0\n1,0.5\nnan,2\n3,4.5\n", "0,0\n1,0.5\n2,2\ninf,4.5\n"],
    ids=["inf-value", "nan-value", "nan-lambda", "inf-lambda"])
def test_table_with_a_nonfinite_entry_exits_2_in_one_line(tmp_path, capsys,
                                                          rows):
    """A NaN or an infinity in either column is one error line that says
    so, for conjugate and bound alike, with no numpy warning."""
    table = tmp_path / "phi.csv"
    table.write_text(rows)
    for argv in (["conjugate", "--phi", f"csv:{table}", "--u", "1,3"],
                 ["bound", "--phi", f"csv:{table}", "--u-grid", "2,3",
                  "--ratio-grid", "2", "--out-dir", str(tmp_path)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv)
        assert code == EXIT_DOMAIN, argv
        assert out == ""
        assert err == "error: table entries must be finite\n", err
    assert not (tmp_path / "bound.json").exists()


def test_bound_on_a_table_sums_one_series_per_level(tmp_path, capsys,
                                                    monkeypatch, bisections):
    """The lambda^2/2 table carries a closed form, so the envelope rules
    out every ratio but the winner: on the default grids `bound` makes
    one block_sum per level, 16 in all, and bisects nothing."""
    from lilbound import engine
    table = tmp_path / "phi.csv"
    lams = np.arange(801) / 20.0
    np.savetxt(table, np.column_stack([lams, lams * lams / 2.0]),
               delimiter=",", fmt="%.17g")
    calls = []
    block_sum = engine.block_sum

    def counting(ratio, v, sigma, phi, x, *rest):
        calls.append(x)
        return block_sum(ratio, v, sigma, phi, x, *rest)

    monkeypatch.setattr(engine, "block_sum", counting)
    code, _, _ = run_cli(capsys, ["bound", "--phi", f"csv:{table}",
                                  "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert len(calls) == len(set(calls)) == 16
    assert bisections == []


def test_conjugate_command_solves_a_table_grid_once(tmp_path, capsys,
                                                  bisections):
    """200 points of a convex table's conjugate by its closed form, with
    no bisection, equal to the numeric twin's lockstep solve within
    1e-12 relative or 1e-10 absolute."""
    from dataclasses import replace

    from lilbound.phi import conjugate_many, phi_from_csv
    table = tmp_path / "phi.csv"
    lams = np.arange(801) / 20.0
    np.savetxt(table, np.column_stack([lams, lams * lams / 2.0]),
               delimiter=",", fmt="%.17g")
    grid = np.linspace(0.0, 50.0, 200)
    code, out, _ = run_cli(capsys, ["conjugate", "--phi", f"csv:{table}",
                                    "--u", ",".join(map(repr, grid.tolist())),
                                    "--json"])
    assert code == EXIT_OK
    assert bisections == []
    twin = conjugate_many(
        replace(phi_from_csv(str(table)), analytic_conjugate=None), grid)
    gap = np.abs(np.array(json.loads(out)["phi_star"]) - twin)
    assert np.all(gap <= np.maximum(1e-12 * twin, 1e-10)), gap.max()


@pytest.mark.parametrize("flag,spec", [
    ("--u-grid", "log:-1:2:3"), ("--u-grid", "log:1:-2:3"),
    ("--ratio-grid", "log:-2:4:3")])
def test_log_grid_through_zero_exits_2_in_one_line(tmp_path, capsys, flag,
                                                   spec):
    """Endpoints of opposite signs give one error line, no numpy
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, [
            "bound", flag, spec, "--out-dir", str(tmp_path)])
    assert code == EXIT_DOMAIN
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "finite" in err


@pytest.mark.parametrize("argv", [["simulate", "--u-grid", "-5,5"],
                                  ["bound", "--u-grid", "-5,5"]])
def test_value_after_a_space_that_starts_with_minus_exits_2_in_one_line(
        tmp_path, capsys, argv):
    """argparse takes -5,5 for a flag; the error is one line that gives
    the '=' form, not a usage message, and nothing is written."""
    code, out, err = run_cli(capsys, argv + ["--out-dir", str(tmp_path)])
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "--u-grid=-5,5" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [[], ["bogus"], ["bound", "--nope", "3"],
                                  ["verify", "--horizon", "x"],
                                  ["bound", "--nope", "-5,5"],
                                  ["verify", "--exact", "-5,5"],
                                  ["bound", "--u-grid", "-5,5", "--nope"]])
def test_argparse_errors_exit_2_in_one_line(capsys, argv):
    """No '=' hint where the '=' form would not parse either."""
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "starts with '-'" not in err


def test_help_is_argparse_help(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: lilbound simulate")
    assert "--u-grid U_GRID" in out


def test_all_negative_log_grid_is_valid():
    assert parse_grid("log:-1:-2:3", "u grid").tolist() == \
        [-1.0, -2.0 ** 0.5, -2.0]


def test_bad_grid_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, ["bound", "--u-grid", "log:1:8"])
    assert code == EXIT_DOMAIN
    assert "u grid" in err


def test_invalid_seed_rejected(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--seed", "0"])
    assert code == EXIT_DOMAIN
    assert "seed" in err


def test_seed_past_uint64_exits_2_before_writing(tmp_path, capsys):
    # 2^64 + 1 would draw seed 1's paths if it were reduced mod 2^64
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, ["simulate", "--seed", str(2 ** 64 + 1),
                                    "--paths", "2000", "--horizon", "64",
                                    "--out-dir", str(out)])
    assert code == EXIT_DOMAIN
    assert err == "error: seed must be below 2^64\n"
    assert not out.exists()
    code, _, _ = run_cli(capsys, ["simulate", "--seed", str(2 ** 64 - 1),
                                  "--paths", "2000", "--horizon", "64",
                                  "--u-grid", "0.8,1.2",
                                  "--out-dir", str(out)])
    assert code == EXIT_OK
    assert (out / "tails.csv").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_censor_guard(tmp_path, capsys):
    """Fewer than 1000 paths cannot beat the count threshold anywhere."""
    code, _, err = run_cli(capsys, [
        "simulate", "--paths", "500", "--out-dir", str(tmp_path)])
    assert code == EXIT_CENSORED
    assert not (tmp_path / "tails.csv").exists()
    assert "increase paths" in err


def test_simulate_small_run(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [
        "simulate", "--horizon", "64", "--paths", "2000",
        "--u-grid", "0.8,1.2", "--seed", "7", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert "tails written" in out
    header, rows = read_csv(tmp_path / "tails.csv")
    assert header == ["u", "w_hat", "ci_low", "ci_high"]
    for _, w_hat, ci_low, ci_high in rows:
        assert ci_low <= w_hat <= ci_high


def test_simulate_weighted_model(tmp_path, capsys):
    code, _, _ = run_cli(capsys, [
        "simulate", "--model", "weightedA:beta=1,r=3", "--horizon", "64",
        "--paths", "2000", "--u-grid", "0.5,1", "--seed", "7",
        "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "tails.json").read_text())
    assert payload["w_hat"][0] >= payload["w_hat"][1]


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    argv = ["simulate", "--horizon", "128", "--paths", "2000",
            "--u-grid", "0.8,1.2", "--seed", "5", "--out-dir", str(tmp_path)]
    assert run_cli(capsys, argv)[0] == EXIT_OK
    first = {name: (tmp_path / name).read_bytes()
             for name in ("tails.csv", "tails.json")}
    assert run_cli(capsys, argv)[0] == EXIT_OK
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob, name


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_exact_sandwich(tmp_path, capsys):
    """Enumeration route: lower <= exact tail <= calibrated bound, exit 0."""
    code, out, _ = run_cli(capsys, [
        "verify", "--exact", "--horizon", "12", "--u-grid", "lin:1:2:4",
        "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert "C_hat=" in out

    header, rows = read_csv(tmp_path / "sandwich.csv")
    assert header == ["u", "lower_bound", "w_hat", "ci_high",
                      "bound_at_Chat_u"]
    assert len(rows) == 4
    for _, lower, w_hat, ci_high, bound in rows:
        assert lower <= w_hat <= ci_high <= bound

    calibration = json.loads((tmp_path / "calibration.json").read_text())
    assert 0.01 <= calibration["c_hat"] <= 100.0
    assert calibration["margin"] >= 1.0
    assert not calibration["capped"]

    # exact tails are rational: the fraction column round-trips the float
    tails = json.loads((tmp_path / "tails.json").read_text())
    for text, value in zip(tails["w_fraction"], tails["w_hat"]):
        num, den = text.split("/")
        assert float(int(num)) / float(int(den)) == value


@pytest.mark.parametrize("model,norming,horizon,u", [
    ("chaos:d=1", "vr:1", "11", "3.417714703383647"),
    ("weightedA:beta=1", "vr:2", "2", "1.9448461285391363")])
def test_verify_floor_at_a_lattice_level_stays_below_the_exact_tail(
        tmp_path, capsys, model, norming, horizon, u):
    """u sits on a value of the statistic at the horizon, where u * v and
    sigma * v round apart: the floor is the statistic's own tail, 0 like
    the exact sup-tail, so verify exits 0."""
    code, _, err = run_cli(capsys, [
        "verify", "--exact", "--model", model, "--norming", norming,
        "--horizon", horizon, "--u-grid", u, "--out-dir", str(tmp_path)])
    assert code == EXIT_OK, err
    _, rows = read_csv(tmp_path / "sandwich.csv")
    assert [row[:3] for row in rows] == [[float(u), 0.0, 0.0]]


@pytest.mark.parametrize("exact", [[], ["--exact"]])
def test_verify_rejects_a_level_it_cannot_calibrate_before_any_run(
        tmp_path, capsys, exact):
    # simulate counts at any finite level; calibration needs u > 0
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, ["verify", *exact, "--u-grid",
                                         "0,1,2", "--paths", "2000",
                                         "--horizon", "16",
                                         "--out-dir", str(out)])
    assert code == EXIT_DOMAIN
    assert stdout == ""
    assert err == "error: u grid must be nonempty, finite and positive\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["simulate"], ["verify"],
                                  ["verify", "--exact"]])
def test_horizon_before_the_first_defined_time_exits_2(tmp_path, capsys,
                                                       argv):
    code, _, err = run_cli(capsys, [*argv, "--model", "chaos:d=3",
                                    "--horizon", "2", "--paths", "1000",
                                    "--out-dir", str(tmp_path)])
    assert code == EXIT_DOMAIN
    assert err == ("error: horizon 2 precedes first non-degenerate time "
                   "3\n")
    assert not any(tmp_path.iterdir())


def test_verify_csv_json_twins_agree(tmp_path, capsys):
    code, _, _ = run_cli(capsys, [
        "verify", "--exact", "--horizon", "10", "--u-grid", "lin:1:2:3",
        "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    _, rows = read_csv(tmp_path / "sandwich.csv")
    payload = json.loads((tmp_path / "sandwich.json").read_text())
    for i, key in enumerate(("u", "lower_bound", "w_hat", "ci_high",
                             "bound_at_Chat_u")):
        assert [row[i] for row in rows] == payload[key], key


#: verify_mc's lower_bound column: the single-time floor at 16384
MC_FLOOR = [0.0013151442193536074, 0.00028499878209612426,
            5.156856173444078e-05, 8.346591339447997e-06,
            1.054410752800457e-06, 1.2038856457136688e-07]


@pytest.mark.parametrize("argv, c_hat, floor", [
    # the benchmark's verify_exact arguments
    (["--exact", "--norming", "vr:2", "--horizon", "20",
      "--u-grid", "lin:1:2.5:8"], 2.20673406908459, None),
    # the benchmark's verify_mc arguments at its reference seed
    (["--norming", "vr:2", "--paths", "32768", "--horizon", "16384",
      "--u-grid", "lin:2:4:8", "--seed", "20260816"], 2.035137468173687,
     MC_FLOOR),
    (["--paths", "32768"], 2.0169145547303304, None),
])
def test_verify_calibrates_to_the_pinned_constant(tmp_path, capsys, argv,
                                                  c_hat, floor):
    """c_hat bit for bit on three runs, and the floor column of one."""
    code, _, _ = run_cli(capsys, ["verify", "--model", "chaos:d=1", *argv,
                                  "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    calibration = json.loads((tmp_path / "calibration.json").read_text())
    assert calibration["c_hat"].hex() == c_hat.hex()
    if floor is not None:
        sandwich = json.loads((tmp_path / "sandwich.json").read_text())
        assert sandwich["lower_bound"] == floor


def test_verify_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"horizon": 10, "u_grid": "lin:1:2:5",
                               "seed": 3}))
    out_dir = tmp_path / "out"
    # the flag grid (3 points) must win over the config grid (5 points)
    code, _, _ = run_cli(capsys, [
        "verify", "--exact", "--config", str(cfg),
        "--u-grid", "lin:1:2:3", "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    _, rows = read_csv(out_dir / "sandwich.csv")
    assert len(rows) == 3
    echoed = json.loads((out_dir / "calibration.json").read_text())["config"]
    assert echoed["u_grid"] == "lin:1:2:3"
    assert echoed["horizon"] == 10


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"horizont": 5}))
    code, _, err = run_cli(capsys, ["verify", "--config", str(cfg)])
    assert code == EXIT_DOMAIN
    assert "unknown config keys" in err and "horizon" in err


@pytest.mark.parametrize("entry", [{"horizon": "abc"}, {"paths": 1500.9},
                                   {"seed": True}])
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, entry):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entry))
    code, out, err = run_cli(capsys, [
        "bound", "--config", str(cfg), "--u-grid", "3", "--ratio-grid", "4",
        "--out-dir", str(tmp_path)])
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(next(iter(entry))) in err


def test_config_path_that_cannot_be_read_exits_2(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing.json"):
        code, out, err = run_cli(capsys, ["bound", "--config", str(path)])
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("error: cannot read config file")
        assert err.count("\n") == 1


def test_chaos_degree_too_large_exits_2(capsys):
    code, _, err = run_cli(capsys, ["bound", "--model", "chaos:d=200"])
    assert code == EXIT_DOMAIN
    assert "chaos degree" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv,code", [
    (["simulate", "--paths", "1000", "--horizon", "64", "--model",
      "chaos:d=4"], EXIT_OK),
    (["verify", "--paths", "1000", "--horizon", "64", "--model",
      "chaos:d=4"], EXIT_OK),
    (["verify", "--exact", "--horizon", "8", "--model", "chaos:d=4"],
     EXIT_OK),
    # past int64 in the first step block of each of two worker processes
    (["simulate", "--paths", "1000", "--horizon", "16384", "--model",
      "chaos:d=12"], EXIT_DOMAIN),
])
def test_chaos_of_any_degree_is_simulated_unless_past_int64(
        tmp_path, capsys, monkeypatch, argv, code):
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setenv("LILBOUND_THREADS", "2")
    got, _, err = run_cli(capsys, argv + ["--out-dir", str(tmp_path)])
    assert got == code
    if code == EXIT_OK:
        assert err == ""
    else:
        assert err.startswith("error: degree-12 chaos passes int64")
        assert err.count("\n") == 1
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("d,horizon,digest", [
    (10, 100, "994f8839c5a0dc5ab3c663ae5ffe5a20"
              "fe8e6ed4ebc411e4b168d6dbce9c60ce"),
    (12, 20, "5f3857a927675f119ff95fb2468f9bd5"
             "da625ed5394805daef5714622db7c9cb"),
    (13, 30, "f846bc77a5cf75132a673111df048c3f"
             "2c158907a29716b6ac24239a3973cbc2"),
    (16, 20, "6a9d8a4543d3d3c272705c5ee92f18db"
             "4b9025d96032fdcc3d78c89002edbfd8"),
])
def test_high_degree_chaos_at_a_short_horizon_is_simulated(
        tmp_path, capsys, monkeypatch, d, horizon, digest):
    # int64 holds every value a walk takes up to the horizon, as
    # prefix_values checks its blocks, but not N_d at the corners of the
    # boxes of its stream words, so the kernel evaluates every step and
    # checks the walks' sign sums.  tails.csv as prefix_values wrote it
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setenv("LILBOUND_THREADS", "2")
    code, _, err = run_cli(capsys, [
        "simulate", "--paths", "1000", "--horizon", str(horizon), "--model",
        f"chaos:d={d}", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(
        (tmp_path / "tails.csv").read_bytes()).hexdigest() == digest


def test_path_count_beyond_any_array_exits_2(tmp_path, capsys):
    # rejected with the configuration, before anything is allocated
    code, _, err = run_cli(capsys, ["simulate", "--paths", str(10 ** 20),
                                    "--horizon", "64",
                                    "--out-dir", str(tmp_path)])
    assert code == EXIT_DOMAIN
    assert err.startswith("error: horizon and paths must be at most 2^53")
    assert err.count("\n") == 1


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # what numpy raises when an array of --horizon steps does not fit
    def no_room(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                          "shape (1000000000000,) and data type float64")

    monkeypatch.setattr(verify, "_normalizer", no_room)
    code, _, err = run_cli(capsys, ["verify", "--paths", "1000",
                                    "--horizon", "64",
                                    "--out-dir", str(tmp_path)])
    assert code == EXIT_DOMAIN
    assert err.startswith("error: out of memory (Unable to allocate 7.28 TiB")
    assert err.count("\n") == 1


@pytest.mark.parametrize("error", [DomainError, MemoryError])
def test_a_failing_worker_process_exits_as_the_kernel_does(
        error, tmp_path, capsys, monkeypatch):
    # a span past path 2000 fails: in a forked worker at two workers,
    # in this process at one
    real = verify._chunk_maxima

    def failing(model, denom, seed, path_lo, path_hi, *rest):
        if path_hi > 2000:
            raise error("injected kernel failure")
        return real(model, denom, seed, path_lo, path_hi, *rest)

    monkeypatch.setattr(verify, "_chunk_maxima", failing)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    argv = ["verify", "--paths", "4000", "--horizon", "64",
            "--out-dir", str(tmp_path)]
    ends = []
    for workers in ("1", "2"):
        monkeypatch.setenv("LILBOUND_THREADS", workers)
        code, _, err = run_cli(capsys, argv)
        ends.append((code, err))
    assert ends[0] == ends[1]
    code, err = ends[0]
    assert code == EXIT_DOMAIN
    assert "injected kernel failure" in err
    assert err.count("\n") == 1


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, ["verify", "--config", str(cfg)])
    assert code == EXIT_DOMAIN
    assert "error:" in err


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def test_models_lists_registries(capsys):
    code, out, _ = run_cli(capsys, ["models"])
    assert code == EXIT_OK
    for token in ("chaos:d=D", "weightedA:beta=B", "phi2", "vr:R",
                  "powerlaw:gamma=G"):
        assert token in out


def test_public_names_resolve_and_cover_the_readme_example():
    """Every name in lilbound.__all__ resolves, and the README's library
    example imports only names from it."""
    import lilbound
    namespace = {}
    exec("from lilbound import *", namespace)  # fails on a dangling name
    assert set(lilbound.__all__) <= set(namespace)
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("## Library use")[1].split("```python")[1]
    tree = ast.parse(example.split("```")[0])
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "lilbound" for alias in node.names}
    assert imported and imported <= set(lilbound.__all__)


# ---------------------------------------------------------------------------
# input fuzzing: every grid spec and config file parses or is a DomainError,
# which main maps to exit 2; nothing else may escape
# ---------------------------------------------------------------------------

_NUMBERS = st.one_of(
    st.integers(-2 ** 40, 2 ** 40).map(str),
    st.floats().map(repr),
    st.text(alphabet="0123456789.-+eE_ infa", max_size=8))
# point counts of a log/lin spec: small ones, and ones no memory holds
_COUNTS = (st.integers(-3, 40) | st.integers(2 ** 20, 2 ** 40)).map(str)
_GRID_SPECS = st.one_of(
    st.text(max_size=24),
    st.tuples(st.sampled_from(["log", "lin", "geo", ""]), _NUMBERS, _NUMBERS,
              _NUMBERS | _COUNTS).map(":".join),
    st.lists(_NUMBERS, max_size=5).map(":".join),
    st.lists(_NUMBERS, max_size=5).map(",".join))


@settings(max_examples=200, deadline=None)
@given(spec=_GRID_SPECS)
@example(spec="log:1:8:1099511627776")
def test_fuzz_parse_grid(spec):
    try:
        grid = parse_grid(spec, "u grid")
    except DomainError:
        return
    assert grid.size > 0 and np.all(np.isfinite(grid))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
_CONFIG_FILES = st.one_of(
    st.dictionaries(st.sampled_from(sorted(vars(RunConfig())))
                    | st.text(max_size=8), _JSON, max_size=4)
    .map(lambda d: json.dumps(d).encode()),
    _JSON.map(lambda x: json.dumps(x).encode()),
    st.text(max_size=30).map(str.encode),
    st.binary(max_size=30))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=_CONFIG_FILES)
def test_fuzz_load_config(tmp_path, content):
    path = tmp_path / "run.json"
    path.write_bytes(content)
    try:
        cfg = load_config(argparse.Namespace(config=str(path)))
    except DomainError:
        return
    assert isinstance(cfg, RunConfig)
