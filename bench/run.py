"""lilbound benchmark: four workloads from the bound grid to Monte Carlo verify.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark runs the checkout's own
``src/`` (PYTHONPATH is set to it, LILBOUND_THREADS to the CPU count) as
a closed loop: one client, each operation started after the previous one
ended, in rounds until about S seconds have passed.
Every operation's outputs are checked; an operation that exits non-zero
or fails a check counts as failed.

``--trace 0`` times fresh ``python -m lilbound.cli`` processes (for
bound_numeric, one library call in a fresh interpreter) and prints the
end-to-end metrics.  ``--trace 1`` alternates an untraced and a traced
round and prints the per-layer metrics of the traced rounds, timed from
this directory's wrappers around the package's entry points (spans.py).
``--smoke`` shrinks every workload to a size that runs in seconds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md in this directory
for the workloads, the metrics and the layer each metric belongs to.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OP = os.path.join(HERE, "op.py")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("bound_grid", "verify_mc", "verify_exact", "bound_numeric")
GRID_MODELS = ("chaos:d=1", "chaos:d=2", "weightedA:beta=1")
#: the criterion-7 seed; --seed N runs verify_mc at REFERENCE_SEED + N
REFERENCE_SEED = 20260816
SIZES = {
    "full": {"paths": 32768, "horizon": 16384, "exact_horizon": 20,
             "k_max": 512},
    "smoke": {"paths": 2000, "horizon": 1024, "exact_horizon": 10,
              "k_max": 64},
}
#: verify workloads run twice at least, so that every run checks that a
#: rerun with the same seed gives the same tails
VERIFY_MIN_ROUNDS = 2
SETUP_SAMPLES = 3
#: children still running this long after the run began are killed, so a
#: hung operation cannot keep the run going past three minutes
RUN_LIMIT_S = 150.0
NUMERIC_REL_TOL = 1e-5
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    pass


def rounds_of(workload: str, seed: int, size: dict, out: str) -> list:
    """The operations of one round, each a list of lilbound CLI arguments
    (None for the bound_numeric library call)."""
    if workload == "bound_grid":
        return [["bound", "--model", m, "--out-dir", out]
                for m in GRID_MODELS]
    if workload == "verify_mc":
        return [["verify", "--model", "chaos:d=1", "--norming", "vr:2",
                 "--paths", str(size["paths"]),
                 "--horizon", str(size["horizon"]), "--u-grid", "lin:2:4:8",
                 "--seed", str(REFERENCE_SEED + seed), "--out-dir", out]]
    if workload == "verify_exact":
        return [["verify", "--exact", "--model", "chaos:d=1",
                 "--norming", "vr:2", "--horizon", str(size["exact_horizon"]),
                 "--u-grid", "lin:1:2.5:8", "--out-dir", out]]
    return [None]


def write_table(path: str) -> None:
    """phi(lambda) = lambda^2/2 tabulated on [0, 40], 801 rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(801):
            lam = i / 20.0
            fh.write("%.17g,%.17g\n" % (lam, lam * lam / 2.0))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _nonincreasing(us, values, what: str) -> None:
    finite = [(u, b) for u, b in sorted(zip(us, values))
              if b == b and abs(b) != float("inf")]
    for (u0, b0), (u1, b1) in zip(finite, finite[1:]):
        if b1 > b0 * (1.0 + 1e-12):
            raise CheckFailed(f"{what} rises from {b0!r} at u={u0!r} to "
                              f"{b1!r} at u={u1!r}")


def _read_csv(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(","))))
            for line in lines[1:]]


def check_cli(argv: list, out: str, first: dict) -> None:
    """Output checks of one CLI operation; first holds the run's first
    tails of each verify workload, for the same-seed identity check."""
    if argv[0] == "bound":
        with open(os.path.join(out, "bound.json"), encoding="utf-8") as fh:
            d = json.load(fh)
        _nonincreasing(d["u"], d["bound"], "bound")
        return
    rows = _read_csv(os.path.join(out, "sandwich.csv"))
    if not rows:
        raise CheckFailed("sandwich.csv has no rows")
    for r in rows:
        lower, w, hi, bound = (r["lower_bound"], r["w_hat"], r["ci_high"],
                               r["bound_at_Chat_u"])
        if not (lower <= w + 1e-15 and w <= hi + 1e-15
                and hi <= bound * (1 + 1e-12)):
            raise CheckFailed(f"sandwich broken at u={r['u']!r}: lower "
                              f"{lower!r}, w_hat {w!r}, ci_high {hi!r}, "
                              f"bound {bound!r}")
    with open(os.path.join(out, "tails.json"), encoding="utf-8") as fh:
        tails = json.load(fh)
    keys = ("counts", "counts_plus") if "counts" in tails \
        else ("w_fraction", "w_plus_fraction")
    counts = json.dumps([tails[k] for k in keys])
    if first.setdefault(" ".join(argv), counts) != counts:
        raise CheckFailed(f"{keys[0]} differ between two runs with the "
                          f"same seed")


def check_numeric(result: dict) -> None:
    _nonincreasing(result["u"], result["q_sums"], "numeric bound")
    for u, q, ref in zip(result["u"], result["q_sums"],
                         result["reference_q_sums"]):
        if not abs(q - ref) <= NUMERIC_REL_TOL * abs(ref):
            raise CheckFailed(f"numeric bound {q!r} at u={u!r} is not "
                              f"within {NUMERIC_REL_TOL} of the analytic "
                              f"{ref!r}")


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

def run_child(cmd: list, env: dict, deadline: float) -> tuple:
    """(exit code, wall seconds) of a child process, killed at deadline."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start
    wall = time.perf_counter() - start
    if proc.returncode:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, wall


class Runner:
    def __init__(self, workload: str, seed: int, size: dict, work: str,
                 env: dict):
        self.env = env
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.work = work
        self.out = os.path.join(work, "out")
        self.table = os.path.join(work, "phi_table.csv")
        write_table(self.table)
        self.ops = rounds_of(workload, seed, size, self.out)
        self.k_max = size["k_max"]
        self.attempted = 0
        self.failed = 0
        self.first = {}

    def _op_cmd(self, argv, traced: bool, result: str) -> list:
        if argv is None:
            cmd = [sys.executable, OP, "--result", result, "--table",
                   self.table, "--k-max", str(self.k_max)]
            return cmd + (["--trace"] if traced else [])
        if traced:
            return [sys.executable, OP, "--result", result, "--trace",
                    "--"] + argv
        return [sys.executable, "-m", "lilbound.cli"] + argv

    def run_op(self, argv, traced: bool = False):
        """Run one operation: (wall seconds, per-layer totals or None)."""
        shutil.rmtree(self.out, ignore_errors=True)
        result_path = os.path.join(self.work, "result.json")
        if os.path.exists(result_path):
            os.unlink(result_path)
        self.attempted += 1
        code, wall = run_child(self._op_cmd(argv, traced, result_path),
                               self.env, self.deadline)
        result = {}
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            if argv is None or traced:
                with open(result_path, encoding="utf-8") as fh:
                    result = json.load(fh)
            if argv is None:
                check_numeric(result)
                wall = result["elapsed_s"]
            else:
                check_cli(argv, self.out, self.first)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            print(f"check failed: {argv or 'bound_numeric'}: {exc}",
                  file=sys.stderr)
        return wall, result.get("totals")

    def run_round(self, traced: bool = False):
        """One round: (summed wall seconds, summed totals or None)."""
        wall, totals = 0.0, {}
        for argv in self.ops:
            w, t = self.run_op(argv, traced)
            wall += w
            for key, value in (t or {}).items():
                totals[key] = totals.get(key, 0.0) + value
        return wall, (totals if traced else None)

    def setup(self) -> dict:
        """Setup seconds and versions seen by a fresh interpreter."""
        argv = self.ops[0]
        result_path = os.path.join(self.work, "setup.json")
        cmd = [sys.executable, OP, "--result", result_path, "--setup"]
        cmd += ["--table", self.table] if argv is None else ["--"] + argv
        code, _ = run_child(cmd, self.env, self.deadline)
        if code != 0:
            raise SystemExit(f"setup failed with exit code {code}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)


def closed_loop(run_round, seconds: float, min_rounds: int) -> list:
    """Rounds back to back until the next one would end mostly past the
    time budget; returns each round's result."""
    start = time.perf_counter()
    results, walls = [], []
    while len(results) < min_rounds or (
            time.perf_counter() - start + statistics.median(walls) / 2
            < seconds):
        t0 = time.perf_counter()
        results.append(run_round())
        walls.append(time.perf_counter() - t0)
    return results


def pinned_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["LILBOUND_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def report(lines: list, correct: bool, attempted: int, failed: int,
           metrics: dict, units: dict) -> None:
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:32s} {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for testing the harness")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "lilbound", "cli.py")):
        print(f"no lilbound sources under {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2

    env = pinned_env()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        runner = Runner(args.workload, args.seed,
                        SIZES["smoke" if args.smoke else "full"], work, env)
        record = runner.setup()  # also fills the bytecode cache
        expected = os.path.join(SRC, "lilbound", "__init__.py")
        if os.path.realpath(record["lilbound"]) != os.path.realpath(expected):
            print(f"lilbound resolved to {record['lilbound']}, not the "
                  f"checkout's {expected}", file=sys.stderr)
            return 2
        env_line = "env: " + json.dumps({
            "lilbound": record["lilbound"],
            "nproc": int(env["LILBOUND_THREADS"]),
            "LILBOUND_THREADS": env["LILBOUND_THREADS"],
            "python": record["python"], "numpy": record["numpy"],
            "scipy": record["scipy"], "workload": args.workload,
            "seed": args.seed, "smoke": args.smoke})

        if args.trace:
            pairs = closed_loop(lambda: (runner.run_round(),
                                         runner.run_round(traced=True)),
                                args.seconds, min_rounds=1)
            per_round = [spans.layer_metrics(t, tw - uw)
                         for (uw, _), (tw, t) in pairs]
            metrics = {}
            for name, (unit, _) in spans.LAYER_METRICS.items():
                values = [m[name] for m in per_round]
                metrics[name] = (statistics.median_low(values)
                                 if unit in ("count", "bytes")
                                 else statistics.median(values))
            units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
            summary = f"traced rounds: {len(pairs)}, each paired with " \
                      f"an untraced round"
        else:
            setups = [record["setup_s"]] + [
                runner.setup()["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            min_rounds = (VERIFY_MIN_ROUNDS
                          if args.workload.startswith("verify") else 1)
            walls = [w for w, _ in closed_loop(runner.run_round,
                                               args.seconds, min_rounds)]
            rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            # the mean, not the median: this machine's speed switches
            # between states for seconds at a time, and the median of a
            # few rounds jumps between them (see README.md)
            metrics = {
                "wall_s": statistics.fmean(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": rss_kib * 1024 / 1e6,
            }
            units = E2E_UNITS
            summary = (f"rounds: {len(walls)} ({len(runner.ops)} "
                       f"operation(s) each); round walls: "
                       + ", ".join(f"{w:.3f}" for w in walls)
                       + f"\n  {'wall_s_median':32s} "
                       f"{statistics.median(walls)!r} s"
                       f"\n  {'wall_s_max':32s} {max(walls)!r} s"
                       f"\n  setup samples: "
                       + ", ".join(f"{x:.3f}" for x in setups))
        failed_frac = runner.failed / runner.attempted
        report([env_line, summary,
                f"  {'failed_frac':32s} {failed_frac!r} "
                f"({runner.failed}/{runner.attempted} operations)"],
               runner.failed == 0, runner.attempted, runner.failed,
               metrics, units)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
