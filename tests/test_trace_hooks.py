"""The names that bench/spans.py wraps still exist and are still called.

The benchmark's tracer replaces module attributes (models.rademacher_block,
engine.block_sum, verify._chunk_maxima, cli.model_from_id, ...) and each
model's prefix_values with timed wrappers.  A rename under src/ breaks
``install`` or leaves a wrapper that nothing calls, and bench/ lies
outside the test paths, so this runs the tracer against three commands.
It runs in a fresh interpreter, since the wrappers replace module
attributes for good, and writes no bytecode next to bench/spans.py.
"""
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent

_PROBE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
rec = spans.Recorder()
spans.install(rec)
from lilbound import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps([codes, sorted({s.name for s in rec.spans})]))
"""


def test_bench_tracer_sees_every_layer(tmp_path):
    table = tmp_path / "phi.csv"
    lams = np.arange(801) / 20.0
    np.savetxt(table, np.column_stack([lams, lams * lams / 2.0]),
               delimiter=",", fmt="%.17g")
    runs = [["verify", "--exact", "--horizon", "8"],
            ["simulate", "--model", "weightedA:beta=1", "--paths", "1000",
             "--horizon", "64"],
            ["bound", "--phi", f"csv:{table}", "--u-grid", "3",
             "--ratio-grid", "4"]]
    runs = [argv + ["--out-dir", str(tmp_path / str(i))]
            for i, argv in enumerate(runs)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "bench" / "spans.py"),
         json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, names = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0], proc.stderr
    assert {"engine.block_sum", "verify.chunk", "models.prefix_values",
            "rng.block", "engine.optimized_bound", "verify.calibrate_constant",
            "phi.conjugate_many"} <= set(names)
