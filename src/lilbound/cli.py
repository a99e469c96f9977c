"""Command-line front end for the bound pipeline.

Subcommands: conjugate (transform calculator), norm (estimate norms from a
sample file), bound (optimized block-sum bound), simulate (empirical tails
only), verify (tails, calibration, and the lower/empirical/bound sandwich),
and models (list the registries).

A run is configured by an optional JSON file plus flags; flags win.  Every
output file is written atomically (temp file, then rename) with no
timestamps, so rerunning a fixed (config, seed) is byte-identical.  CSV and
JSON twins carry the same numbers; CSV floats use %.17g, which round-trips
float64 exactly.

Exit codes: 0 success, 2 bad configuration, domain error, a file that
cannot be read or written, or sizes too large for memory, 3 transform
nonconvergence, 4 all-divergent bound, 5 calibration or dominance
failure, 6 censored tail grid (too few exceedances to estimate anything).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from typing import List, Optional, Sequence

import numpy as np

from .engine import (NormingSequence, SigmaProfile, _levels,
                     constant_norming, iterated_log_norming, optimized_bound)
from .errors import (CalibrationError, DomainError, LilboundError,
                     NonconvergenceError)
from .models import (MartingaleModel, chaos_model, power_law_surrogate,
                     weighted_iid_model)
from .phi import (PhiFunction, chi_square_phi, conjugate_many, cosh_phi,
                  phi_from_csv, phi2, power_phi)
from .rng import check_seed

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NONCONVERGENCE = 3
EXIT_DIVERGENT = 4
EXIT_DOMINANCE = 5
EXIT_CENSORED = 6

PHI_REGISTRY = "phi2, power:q=Q, cosh, chi2, csv:PATH"
NORMING_REGISTRY = "vr:R, const:C"
MODEL_REGISTRY = "chaos:d=D, weightedA:beta=B[,r=R]"
SIGMA_REGISTRY = "model (exact profile), powerlaw:gamma=G[,m=one|log|invlog]"
MAX_GRID_POINTS = 10 ** 6
#: the largest horizon or path count: times are float64, exact to 2^53, and
#: past it numpy may refuse an array with ValueError, not MemoryError
MAX_SIZE = 2 ** 53
#: what simulate and verify use of lilbound.verify; the two commands import
#: it themselves, and main imports it before parsing when they are asked
#: for, so it is compiled on the small heap of a fresh process (0.45 MB
#: less peak RSS than an import mid-command); bound never loads the module
_VERIFY_NAMES = ("CENSOR_COUNT", "TailEstimate", "calibrate_constant",
                "empirical_sup_tail", "exact_sup_tail", "single_time_tail")


def _import_verify() -> None:
    """Bind _VERIFY_NAMES in this module, keeping a name already bound
    (a wrapper set from outside)."""
    from . import verify
    for name in _VERIFY_NAMES:
        globals().setdefault(name, getattr(verify, name))


def __getattr__(name: str):
    """cli.calibrate_constant and the other _VERIFY_NAMES before a command
    has imported them, so that they can be read and replaced."""
    if name not in _VERIFY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    _import_verify()
    return globals()[name]


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

def _parse_kv(spec: str, what: str) -> dict:
    out = {}
    for piece in spec.split(","):
        if not piece:
            continue
        if "=" not in piece:
            raise DomainError(f"bad {what} parameter {piece!r}, "
                              f"expected key=value")
        key, _, val = piece.partition("=")
        out[key.strip()] = val.strip()
    return out


def _number(text: str, what: str, kind=float):
    """text as a finite float (or an int), or a DomainError naming what
    it was for."""
    try:
        value = kind(text)
        if kind is int or math.isfinite(value):
            return value
    except ValueError:
        pass
    noun = "an integer" if kind is int else "a finite number"
    raise DomainError(f"{what} must be {noun}, got {text!r}")


def phi_from_id(phi_id: str) -> PhiFunction:
    """Resolve a generator id; unknown ids name the registry."""
    head, _, rest = phi_id.partition(":")
    if head == "phi2":
        return phi2()
    if head == "cosh":
        return cosh_phi()
    if head == "chi2":
        return chi_square_phi()
    if head == "power":
        kv = _parse_kv(rest, "phi")
        if set(kv) != {"q"}:
            raise DomainError(f"power generator takes q=..., got {rest!r}")
        return power_phi(_number(kv["q"], "power q"))
    if head == "csv":
        if not rest:
            raise DomainError("csv generator needs a path: csv:PATH")
        return phi_from_csv(rest)
    raise DomainError(f"unknown phi id {phi_id!r}; registry: {PHI_REGISTRY}")


def norming_from_id(norming_id: str) -> NormingSequence:
    head, _, rest = norming_id.partition(":")
    if head == "vr":
        return iterated_log_norming(_number(rest, "vr rate exponent"))
    if head == "const":
        return constant_norming(_number(rest, "const norming") if rest
                               else 1.0)
    raise DomainError(f"unknown norming id {norming_id!r}; registry: "
                      f"{NORMING_REGISTRY}")


def model_from_id(model_id: str) -> MartingaleModel:
    head, _, rest = model_id.partition(":")
    kv = _parse_kv(rest, "model")
    if head == "chaos":
        if set(kv) != {"d"}:
            raise DomainError(f"chaos model takes d=..., got {rest!r}")
        return chaos_model(_number(kv["d"], "chaos degree d", int))
    if head == "weightedA":
        extra = set(kv) - {"beta", "r"}
        if extra:
            raise DomainError(f"weightedA model takes beta=,r=; got {extra}")
        return weighted_iid_model(
            beta=_number(kv.get("beta", "1"), "weightedA beta"),
            weibull_r=(_number(kv["r"], "weightedA r") if "r" in kv
                       else None))
    raise DomainError(f"unknown model id {model_id!r}; registry: "
                      f"{MODEL_REGISTRY}")


def profile_from_id(sigma_id: str) -> SigmaProfile:
    head, _, rest = sigma_id.partition(":")
    if head == "powerlaw":
        kv = _parse_kv(rest, "sigma")
        extra = set(kv) - {"gamma", "m"}
        if "gamma" not in kv or extra:
            raise DomainError(f"powerlaw profile takes gamma=[,m=]; "
                              f"got {rest!r}")
        return power_law_surrogate(_number(kv["gamma"], "powerlaw gamma"),
                                   kv.get("m", "one"))
    raise DomainError(f"unknown sigma id {sigma_id!r}; registry: "
                      f"{SIGMA_REGISTRY}")


def parse_grid(spec: str, what: str) -> np.ndarray:
    """Grid specs: 'log:lo:hi:n', 'lin:lo:hi:n', or a comma list.

    n is capped at MAX_GRID_POINTS, so a typo cannot ask for an array
    larger than memory.
    """
    parts = spec.split(":")
    grid = None
    try:
        if parts[0] in ("log", "lin") and len(parts) == 4:
            lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
            if n > MAX_GRID_POINTS:
                raise ValueError(f"at most {MAX_GRID_POINTS} points")
            space = np.geomspace if parts[0] == "log" else np.linspace
            # endpoints of opposite signs make geomspace NaN, which the
            # finiteness check below reports
            with np.errstate(invalid="ignore"):
                grid = space(lo, hi, n)
        elif len(parts) == 1:
            grid = np.array([float(x) for x in spec.split(",") if x])
    except ValueError as exc:
        raise DomainError(f"bad {what} spec {spec!r}: {exc}")
    if grid is None:
        raise DomainError(f"bad {what} spec {spec!r}; use log:lo:hi:n, "
                          f"lin:lo:hi:n, or a comma list")
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise DomainError(f"bad {what} spec {spec!r}: the grid must be "
                          f"nonempty and finite")
    return grid


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class RunConfig:
    """One reproducible run: the model/norming/phi triple plus budgets."""
    model: str = "chaos:d=1"
    phi: str = ""            # empty: the model's own generator
    norming: str = "vr:2"
    sigma: str = ""          # empty: the model's exact profile
    u_grid: str = "log:1:8:16"
    horizon: int = 16384
    paths: int = 100000
    seed: int = 1
    ratio_grid: str = ""     # empty: the engine's DEFAULT_RATIOS
    tolerance: float = 1e-12
    out_dir: str = "."

    def validate(self) -> None:
        if self.horizon < 1 or self.paths < 1 or self.seed < 1:
            raise DomainError("horizon, paths, and seed must be positive")
        if max(self.horizon, self.paths) > MAX_SIZE:
            raise DomainError("horizon and paths must be at most 2^53")
        check_seed(self.seed)
        if not 0.0 < self.tolerance < 1.0:
            raise DomainError(f"tolerance must lie in (0, 1), got "
                              f"{self.tolerance}")


_CONFIG_FIELDS = {f.name: type(f.default)
                  for f in dataclasses.fields(RunConfig)}


def _config_value(key: str, val):
    """val as the type of config field key.  A bool is no number, and an
    int field takes only integral numbers."""
    want = _CONFIG_FIELDS[key]
    if isinstance(val, want if want is str else (int, float)) \
            and not isinstance(val, bool):
        try:
            if want is not int or float(val).is_integer():
                return want(val)
        except OverflowError:  # an integer beyond float range
            pass
    raise DomainError(f"config key {key!r} must be of type "
                      f"{want.__name__}, got {val!r}")


def load_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the JSON config file, then explicit flags."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:  # missing, a directory, unreadable, ...
            raise DomainError(f"cannot read config file {args.config!r}: "
                              f"{exc.strerror or exc}") from None
        except ValueError as exc:  # not UTF-8 text, or not JSON
            raise DomainError(f"config file {args.config!r} is not valid "
                              f"JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise DomainError("config file must hold one JSON object")
        unknown = set(raw) - set(_CONFIG_FIELDS)
        if unknown:
            raise DomainError(f"unknown config keys {sorted(unknown)}; "
                              f"known: {sorted(_CONFIG_FIELDS)}")
        for key, val in raw.items():
            setattr(cfg, key, _config_value(key, val))
    for key in _CONFIG_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    cfg.validate()
    return cfg


def _ratio_grid(cfg: RunConfig) -> Optional[np.ndarray]:
    """The configured ratio family; None selects the engine's default."""
    return parse_grid(cfg.ratio_grid, "ratio grid") if cfg.ratio_grid else None


def _resolve(cfg: RunConfig):
    """(model, v, sigma, phi) from a validated config."""
    model = model_from_id(cfg.model)
    v = norming_from_id(cfg.norming)
    sigma = profile_from_id(cfg.sigma) if cfg.sigma else model.sigma_profile()
    phi = phi_from_id(cfg.phi) if cfg.phi else model.phi
    return model, v, sigma, phi


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    """A CSV cell: every cell written is an integer or a float."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str],
              rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, obj: dict) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _out(cfg_or_dir, name: str) -> str:
    base = cfg_or_dir if isinstance(cfg_or_dir, str) else cfg_or_dir.out_dir
    return os.path.join(base, name)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_conjugate(args: argparse.Namespace) -> int:
    phi = phi_from_id(args.phi)
    grid = [_number(x, "conjugate point") for x in args.u.split(",") if x]
    if not grid:
        raise DomainError("empty u grid")
    values = conjugate_many(phi, grid).tolist()
    if args.out_dir:
        payload = {"u": grid, "phi_star": values, "phi": phi.label}
        write_csv(_out(args.out_dir, "conjugate.csv"), ("u", "phi_star"),
                  list(zip(grid, values)))
        write_json(_out(args.out_dir, "conjugate.json"), payload)
    if args.json:
        print(json.dumps({"u": grid, "phi_star": values}))
    else:
        print("u,phi_star")
        for u, val in zip(grid, values):
            print(f"{_fmt(u)},{_fmt(val)}")
    return EXIT_OK


def cmd_norm(args: argparse.Namespace) -> int:
    from .norms import Sample, estimate_norms
    sample = Sample.from_csv(args.sample)
    phi = phi_from_id(args.phi)
    est = estimate_norms(sample, phi)
    if args.out_dir:
        d = est.to_dict()
        keys = ("b_norm", "g_norm", "lambda_grid_max", "p_max", "mean_abs",
                "sample_size")
        write_csv(_out(args.out_dir, "norms.csv"), keys,
                  [[d[k] for k in keys]])
        write_json(_out(args.out_dir, "norms.json"), d)
    print(f"b_norm={est.b_norm:.6g} g_norm={est.g_norm:.6g} "
          f"(sample {sample.label!r}, M={est.sample_size}, phi {phi.label})")
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    _, v, sigma, phi = _resolve(cfg)
    u_grid = parse_grid(cfg.u_grid, "u grid")
    report = optimized_bound(v, sigma, phi, u_grid,
                             ratio_grid=_ratio_grid(cfg), tol=cfg.tolerance)
    d = report.to_dict()
    write_csv(_out(cfg, "bound.csv"), ("u", "bound", "ratio_chosen", "k_used"),
              list(zip(d["u"], d["bound"], d["ratio_chosen"], d["k_used"])))
    write_json(_out(cfg, "bound.json"), {**d, "config": dataclasses.asdict(cfg)})
    if report.all_divergent:
        print("bound diverges at every grid point (non-summable blocks); "
              "nothing usable written", file=sys.stderr)
        return EXIT_DIVERGENT
    best = int(np.argmin(d["bound"]))
    print(f"minimal bound {d['bound'][best]:.6g} at u={d['u'][best]:.6g} "
          f"(ratio {d['ratio_chosen'][best]:.4g}, {d['k_used'][best]} blocks)")
    return EXIT_OK


def _tail_files(cfg: RunConfig, estimate) -> None:
    d = estimate.to_dict()
    # exact tails are their own interval
    rows = list(zip(d["u"], d["w_hat"], d.get("ci_low", d["w_hat"]),
                    d.get("ci_high", d["w_hat"])))
    write_csv(_out(cfg, "tails.csv"), ("u", "w_hat", "ci_low", "ci_high"),
              rows)
    write_json(_out(cfg, "tails.json"), {**d, "config": dataclasses.asdict(cfg)})


def _censor_guard(cfg: RunConfig) -> Optional[int]:
    if cfg.paths < 1000:
        print(f"{cfg.paths} paths cannot resolve any tail at the "
              f"{CENSOR_COUNT}-count censoring threshold; increase paths",
              file=sys.stderr)
        return EXIT_CENSORED
    return None


def cmd_simulate(args: argparse.Namespace) -> int:
    _import_verify()
    cfg = load_config(args)
    model, v, _, _ = _resolve(cfg)
    guard = _censor_guard(cfg)
    if guard is not None:
        return guard
    u_grid = parse_grid(cfg.u_grid, "u grid")
    estimate = empirical_sup_tail(model, v, cfg.horizon, cfg.paths, u_grid,
                                  cfg.seed)
    _tail_files(cfg, estimate)
    if all(estimate.censored):
        print("every grid point censored (tail counts below "
              f"{CENSOR_COUNT}); estimates written but unusable",
              file=sys.stderr)
        return EXIT_CENSORED
    print(f"tails written to {_out(cfg, 'tails.csv')}; "
          f"{sum(estimate.censored)}/{len(estimate.censored)} cells censored")
    return EXIT_OK


def _exact_as_estimate(exact) -> TailEstimate:
    """Wrap enumeration output so calibration sees exact degenerate CIs."""
    total = 1 << exact.horizon
    w = tuple(float(f) for f in exact.w)
    return TailEstimate(
        u_grid=exact.u_grid, w_hat=w,
        w_plus_hat=tuple(float(f) for f in exact.w_plus),
        ci_low=w, ci_high=w, counts=tuple(int(f * total) for f in exact.w),
        counts_plus=tuple(int(f * total) for f in exact.w_plus),
        censored=(False,) * len(w), horizon=exact.horizon, paths=total,
        seed=0, model_label=exact.model_label,
        norming_label=exact.norming_label)


def _lower_bounds(model, v, horizon: int, u_grid: np.ndarray) -> np.ndarray:
    """Single-time floor: the run's own statistic at the horizon, on the
    same denominator and float test as its sup-tail, so it is never above
    the exact sup-tail; zero when no exact tail exists."""
    _import_verify()
    try:
        return single_time_tail(model, horizon, u_grid, v)
    except DomainError:
        return np.zeros(len(u_grid))


def cmd_verify(args: argparse.Namespace) -> int:
    _import_verify()
    cfg = load_config(args)
    model, v, sigma, phi = _resolve(cfg)
    u_grid = parse_grid(cfg.u_grid, "u grid")
    _levels(u_grid)  # calibration's levels, checked before any run
    if args.exact:
        exact = exact_sup_tail(model, v, cfg.horizon, u_grid)
        estimate = _exact_as_estimate(exact)
        _tail_files(cfg, exact)
    else:
        guard = _censor_guard(cfg)
        if guard is not None:
            return guard
        estimate = empirical_sup_tail(model, v, cfg.horizon, cfg.paths,
                                      u_grid, cfg.seed)
        _tail_files(cfg, estimate)
        if all(estimate.censored):
            print("every grid point censored; cannot calibrate",
                  file=sys.stderr)
            return EXIT_CENSORED
    try:
        calibration = calibrate_constant(estimate, v, sigma, phi,
                                         ratio_grid=_ratio_grid(cfg),
                                         tol=cfg.tolerance)
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_DOMINANCE
    write_json(_out(cfg, "calibration.json"),
               {**calibration.to_dict(), "config": dataclasses.asdict(cfg)})
    lower = _lower_bounds(model, v, cfg.horizon, u_grid)
    rows = [(float(u_grid[i]), float(lower[i]), estimate.w_hat[i],
             estimate.ci_high[i], calibration.bound_values[i])
            for i in range(len(u_grid)) if not estimate.censored[i]]
    violations = sum(not (lo <= w + 1e-15 and w <= hi + 1e-15
                          and hi <= b * (1 + 1e-12))
                     for _, lo, w, hi, b in rows)
    header = ("u", "lower_bound", "w_hat", "ci_high", "bound_at_Chat_u")
    write_csv(_out(cfg, "sandwich.csv"), header, rows)
    # calibration needs an uncensored cell, so rows is never empty here
    write_json(_out(cfg, "sandwich.json"),
               {**{key: list(col) for key, col in zip(header, zip(*rows))},
                "config": dataclasses.asdict(cfg)})
    if violations or calibration.margin < 1.0:
        print(f"dominance failed on {violations} rows "
              f"(margin {calibration.margin:.4g}); this signals an "
              f"inconsistency between bound and estimator", file=sys.stderr)
        return EXIT_DOMINANCE
    print(f"C_hat={calibration.c_hat:.4g} margin={calibration.margin:.4g} "
          f"({len(rows)} usable grid points; outputs in {cfg.out_dir})")
    return EXIT_OK


def cmd_models(args: argparse.Namespace) -> int:
    print("models:   chaos:d=D          degree-D sign chaos")
    print("          weightedA:beta=B   geometrically weighted signs, "
          "noise scale B")
    print("          weightedA:beta=B,r=R  same weights, symmetric noise "
          "with tail exp(-x^R), R>1")
    print(f"phi:      {PHI_REGISTRY}")
    print(f"normings: {NORMING_REGISTRY}")
    print(f"sigma:    {SIGMA_REGISTRY}")
    print("grids:    log:lo:hi:n | lin:lo:hi:n | comma list")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON run configuration; flags override")
    sub.add_argument("--model", help=f"model id ({MODEL_REGISTRY})")
    sub.add_argument("--phi", help=f"generator id ({PHI_REGISTRY}); "
                     f"default: the model's own")
    sub.add_argument("--norming", help=f"norming id ({NORMING_REGISTRY})")
    sub.add_argument("--sigma", help=f"sigma profile ({SIGMA_REGISTRY}); "
                     f"default: the model's exact profile")
    sub.add_argument("--u-grid", dest="u_grid", help="u grid spec")
    sub.add_argument("--horizon", type=int, help="sup truncation horizon N")
    sub.add_argument("--paths", type=int, help="Monte Carlo paths M")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--ratio-grid", dest="ratio_grid",
                     help="partition ratio grid spec")
    sub.add_argument("--tolerance", type=float,
                     help="series truncation tolerance")
    sub.add_argument("--out-dir", dest="out_dir", help="output directory")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors main reports in one line, as it
    reports every other bad input, in place of a usage message."""

    def error(self, message: str):
        raise DomainError(message)


def _dash_hint(argv: Sequence[str]) -> str:
    """For argv that failed to parse: the '=' form of a flag whose value
    starts with '-' (argparse takes such a value for a flag) when argv
    parses with it; else '', and always '' when argv asks for help."""
    if any(a == "-h" or len(a) > 2 and "--help".startswith(a) for a in argv):
        return ""
    for i in range(len(argv) - 1):
        flag, value = argv[i], argv[i + 1]
        if not (flag.startswith("--") and "=" not in flag
                and value.startswith("-")):
            continue
        try:
            build_parser().parse_args(
                [*argv[:i], f"{flag}={value}", *argv[i + 2:]])
        except DomainError:
            continue
        return f"; write a value that starts with '-' as {flag}={value}"
    return ""


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lilbound",
        description="Exponential tail bounds for normalized martingale "
                    "maxima, with Monte Carlo verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("conjugate", help="evaluate the convex conjugate")
    p.add_argument("--phi", required=True, help=f"generator id "
                   f"({PHI_REGISTRY})")
    p.add_argument("--u", required=True, help="comma list of points")
    p.add_argument("--json", action="store_true",
                   help="print JSON instead of CSV")
    p.add_argument("--out-dir", dest="out_dir",
                   help="also write conjugate.csv/json here")
    p.set_defaults(func=cmd_conjugate)

    p = subs.add_parser("norm", help="estimate norms from a sample file")
    p.add_argument("--sample", required=True,
                   help="one-column CSV of observations")
    p.add_argument("--phi", default="phi2", help=f"generator id "
                   f"({PHI_REGISTRY})")
    p.add_argument("--out-dir", dest="out_dir",
                   help="also write norms.csv/json here")
    p.set_defaults(func=cmd_norm)

    p = subs.add_parser("bound", help="compute the optimized tail bound")
    _add_config_flags(p)
    p.set_defaults(func=cmd_bound)

    p = subs.add_parser("simulate", help="estimate empirical tails only")
    _add_config_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("verify", help="tails, calibration, and sandwich")
    _add_config_flags(p)
    p.add_argument("--exact", action="store_true",
                   help="exhaustive enumeration instead of Monte Carlo "
                        "(horizon <= 20)")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("models", help="list the registries")
    p.set_defaults(func=cmd_models)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] in (["simulate"], ["verify"]):
        _import_verify()
    try:
        args = build_parser().parse_args(argv)
    except DomainError as exc:
        print(f"error: {exc}{_dash_hint(argv)}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        return args.func(args)
    except NonconvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (LilboundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'no detail'}); lower "
              f"--paths or --horizon", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
