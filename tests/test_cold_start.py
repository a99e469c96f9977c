"""The package and every command (``bound``, ``conjugate``, ``simulate``,
``verify`` and ``norm``) run without importing scipy, and ``bound`` and
``conjugate`` without importing ``lilbound.verify`` or ``lilbound.norms``.

Each check starts a fresh interpreter, since the test process has
imported scipy and every lilbound module already.
"""
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
from lilbound import cli
argv = json.loads(sys.argv[1])
code = cli.main(argv) if argv else 0
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] == "scipy"),
                  sorted(m for m in sys.modules if m.startswith("lilbound."))]))
"""


def _run_fresh(argv):
    """Exit code of cli.main(argv) (0 when argv is empty, for the bare
    import), the scipy modules loaded and the lilbound submodules loaded,
    from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("case", ["import", "bound", "bound_csv",
                                  "conjugate_csv", "simulate"])
def test_no_scipy_outside_verify_and_norm(tmp_path, case):
    table = tmp_path / "phi.csv"
    lams = np.arange(801) / 20.0
    np.savetxt(table, np.column_stack([lams, lams * lams / 2.0]),
               delimiter=",", fmt="%.17g")
    argv = {"import": [],
            "bound": ["bound", "--out-dir", str(tmp_path)],
            "bound_csv": ["bound", "--phi", f"csv:{table}", "--u-grid", "3",
                          "--ratio-grid", "4", "--out-dir", str(tmp_path)],
            "conjugate_csv": ["conjugate", "--phi", f"csv:{table}",
                              "--u", "0.5,2,30"],
            "simulate": ["simulate", "--paths", "2000", "--horizon", "64",
                         "--out-dir", str(tmp_path)]}[case]
    code, loaded, modules = _run_fresh(argv)
    assert code == 0
    assert loaded == []
    if case != "simulate":
        assert not {"lilbound.verify", "lilbound.norms"} & set(modules)


@pytest.mark.parametrize("case", ["exact", "monte_carlo"])
def test_verify_loads_no_scipy(tmp_path, case):
    argv = {"exact": ["verify", "--exact", "--horizon", "12"],
            "monte_carlo": ["verify", "--paths", "2000", "--horizon", "64"]
            }[case] + ["--out-dir", str(tmp_path)]
    code, loaded, _ = _run_fresh(argv)
    assert code == 0
    assert loaded == []
    assert (tmp_path / "sandwich.csv").exists()


def test_norm_loads_no_scipy(tmp_path):
    sample = tmp_path / "sample.csv"
    values = np.random.default_rng(5).standard_normal(2000)
    np.savetxt(sample, values - values.mean(), fmt="%.17g")
    code, loaded, _ = _run_fresh(["norm", "--sample", str(sample),
                                  "--out-dir", str(tmp_path)])
    assert code == 0
    assert loaded == []
    assert (tmp_path / "norms.json").exists()


_DIRECT_PROBE = """
import json, sys
import numpy as np
from lilbound import cli
from lilbound.engine import constant_norming
argv = json.loads(sys.argv[1])
if argv:
    args = cli.build_parser().parse_args(argv)
    print(args.func(args))
else:
    floor = cli._lower_bounds(cli.model_from_id("chaos:d=1"),
                              constant_norming(), 4, np.array([0.5, 1.5]))
    print(json.dumps(floor.tolist()))
"""


@pytest.mark.parametrize("case", ["lower_bounds", "simulate", "verify",
                                  "verify_exact"])
def test_commands_run_without_main(tmp_path, case):
    """A command called through its parser, and cli._lower_bounds called
    alone, import what they use of lilbound.verify themselves."""
    out = ["--out-dir", str(tmp_path)]
    argv = {"lower_bounds": [],
            "simulate": ["simulate", "--paths", "2000", "--horizon", "64"]
            + out,
            "verify": ["verify", "--paths", "2000", "--horizon", "64"] + out,
            "verify_exact": ["verify", "--exact", "--horizon", "12"] + out,
            }[case]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _DIRECT_PROBE, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    # chaos:d=1 at time 4: S/2 takes 2 (1/16), 1 (4/16), 0, -1, -2
    assert last == ([5 / 16, 1 / 16] if case == "lower_bounds" else 0)
