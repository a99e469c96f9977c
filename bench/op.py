"""One benchmark operation in a fresh interpreter; run by bench/run.py.

    op.py --result OUT [--setup] [--trace] -- CLI-ARGS...
    op.py --result OUT [--setup] [--trace] --table CSV --k-max K

With CLI arguments the operation is ``lilbound.cli.main(CLI-ARGS)``; with
``--table`` it is the library call of the ``bound_numeric`` workload.
``--setup`` stops after importing ``lilbound.cli`` and resolving the
inputs, and records how long that took plus the versions in use.
``--trace`` wraps the package's entry points (see spans.py) and records
the per-layer totals.  The result goes to OUT as JSON; the exit code is
the operation's.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import spans

#: the bound_numeric library call: u levels, partition ratios, iterated-log r
NUMERIC_U = (2.0, 3.0, 4.0)
NUMERIC_RATIOS = (2.0, 4.0, 8.0)
NUMERIC_R = 2.0


def _numeric_inputs(table: str):
    from lilbound.engine import iterated_log_norming
    from lilbound.models import chaos_model
    from lilbound.phi import phi_from_csv
    return (iterated_log_norming(NUMERIC_R), chaos_model(1).sigma_profile(),
            phi_from_csv(table))


def setup(args, cli_args) -> dict:
    start = time.perf_counter()
    from lilbound import cli
    if args.table:
        _numeric_inputs(args.table)
    else:
        cli._resolve(cli.load_config(cli.build_parser().parse_args(cli_args)))
    elapsed = time.perf_counter() - start
    import platform

    import lilbound
    import numpy
    import scipy
    return {"setup_s": elapsed, "lilbound": lilbound.__file__,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def numeric(args, rec) -> dict:
    from lilbound import engine
    from lilbound.phi import phi2
    bound = engine.optimized_bound
    if rec is not None:
        bound = rec.wrap("engine.optimized_bound", bound)
    start = time.perf_counter()
    v, sigma, phi = _numeric_inputs(args.table)
    report = bound(v, sigma, phi, u_grid=NUMERIC_U, ratio_grid=NUMERIC_RATIOS,
                   k_max=args.k_max)
    elapsed = time.perf_counter() - start
    # the analytic twin of the table, outside the timed call and the trace
    spans_taken = list(rec.spans) if rec is not None else []
    reference = engine.optimized_bound(v, sigma, phi2(), u_grid=NUMERIC_U,
                                       ratio_grid=NUMERIC_RATIOS,
                                       k_max=args.k_max)
    if rec is not None:
        rec.spans = spans_taken
    return {"elapsed_s": elapsed, "u": list(report.u_grid),
            "q_sums": list(report.q_sums),
            "reference_q_sums": list(reference.q_sums)}


def main() -> int:
    argv = sys.argv[1:]
    cli_args = argv[argv.index("--") + 1:] if "--" in argv else []
    own = argv[:argv.index("--")] if "--" in argv else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--table")
    parser.add_argument("--k-max", dest="k_max", type=int, default=512)
    args = parser.parse_args(own)

    rec = None
    if args.trace and not args.setup:
        rec = spans.Recorder()
        spans.install(rec)
    code = 0
    if args.setup:
        result = setup(args, cli_args)
    elif args.table:
        result = numeric(args, rec)
    else:
        from lilbound import cli
        start = time.perf_counter()
        code = cli.main(cli_args)
        result = {"elapsed_s": time.perf_counter() - start}
    if rec is not None:
        workers = int(os.environ.get("LILBOUND_THREADS", "1"))
        result["totals"] = spans.totals(rec, workers)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
