"""Cold start: importing the command line and running a parabolic-only
config loads none of scipy's fft, optimize, sparse, spatial and special;
the first eps > 0 solve loads sparse but neither fft nor special, and a
periodic-orbit run loads none of fft, optimize, spatial and special.  It
runs in a fresh interpreter, because this test process has long since
imported all five."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ("scipy.fft", "scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.special")

SCRIPT = """
import json, sys

def loaded():
    return sorted(name for name in %r if name in sys.modules)

from cylinderlab.cli import main
after_import = loaded()
code = main(["solve-parabolic", "--config", sys.argv[1], "--out", sys.argv[2], "--fixed-clock"])
after_run = loaded()

from cylinderlab import (
    Constant, CouplingMatrices, CylinderGrid, Field, SpatialGrid, cubic_nonlinearity,
    sine_field, solve_truncated_bvp,
)
grid = SpatialGrid(3.141592653589793, 8)
solve_truncated_bvp(
    grid, CylinderGrid(0.0, 1.0, 8, 0.3), CouplingMatrices.scalar(), cubic_nonlinearity(2.0),
    Constant(Field.zeros(grid)), sine_field(grid, [0.5]),
)
after_solve = loaded()

periodic = main(["converge", "--config", sys.argv[3], "--out", sys.argv[4], "--fixed-clock"])
print(json.dumps({
    "code": code, "import": after_import, "run": after_run, "solve": after_solve,
    "periodic_code": periodic, "periodic": loaded(),
}))
""" % (DEFERRED,)


def test_parabolic_run_loads_no_deferred_scipy(tmp_path, configs_dir):
    config = json.loads((configs_dir / "c05-lyapunov.json").read_text())
    config["problem"]["n_interior"] = 16
    config["params"].update(n_trajectories=2, t_end=0.1)
    path = tmp_path / "c05-short.json"
    path.write_text(json.dumps(config))
    orbit = json.loads((configs_dir / "c08-periodic-orbit.json").read_text())
    orbit["problem"]["n_interior"] = 16
    orbit["eps_list"] = [0.2]
    orbit_path = tmp_path / "c08-short.json"
    orbit_path.write_text(json.dumps(orbit))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-c", SCRIPT, str(path), str(tmp_path / "out"), str(orbit_path),
            str(tmp_path / "orbit"),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["code"] == 0
    assert seen["import"] == [] and seen["run"] == []
    # the first space-time solve builds its operator with sparse; its DST-I
    # matrix comes from a closed form, so neither fft nor special loads
    assert seen["solve"] == ["scipy.sparse"]
    # periodic tracking needs no scipy.optimize, its rfft is numpy's, and no
    # run here measures clouds (special arrives with spatial)
    assert seen["periodic_code"] == 0
    assert seen["periodic"] == ["scipy.sparse"]
