"""scipy loads on a solver's first call: the banded LU loads its LAPACK extension
alone, the rest through bindings the benchmark can wrap."""
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from kickcool import (
    build_generator,
    build_kick_map,
    default_n_max,
    dynamics,
    evolve,
    evolve_stroboscopic,
    steady_state_longtime,
    steady_state_numeric,
    thermal_distribution,
)
from kickcool.cli import PRESETS
from test_bench_bindings import load_worker

SRC = Path(__file__).resolve().parent.parent / "src"


def fig2_at(n_th):
    params = replace(PRESETS["fig2"]()["protocol"], n_th=n_th)
    n_max = default_n_max(n_th)
    kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
    return params, kick, build_generator(params, kick, n_max)


def run_evolve():
    params, _, gen = fig2_at(1.7)
    t_end = 3.0 / params.r_a
    evolve(thermal_distribution(params.n_th, gen.n_max), gen, t_end)


def run_strobe():
    params, kick, _ = fig2_at(1.7)
    evolve_stroboscopic(thermal_distribution(params.n_th, kick.n_max), params, kick, 2)


# the smallest run that reaches each counted scipy function; solve_ivp, expm,
# solve_banded and splu stay bound for the benchmark's counters, and the runs
# here must not reach them
UNCALLED = {
    "solve_ivp": "evolve",
    "expm": "strobe",
    "solve_banded": "the long-time route",
    "splu": "the pinned null space",
}
RUNS = {
    "solve_ivp": run_evolve,
    "solve_banded": lambda: steady_state_longtime(fig2_at(1.7)[2]),
    "svd": lambda: steady_state_numeric(fig2_at(1.7)[2]),  # 61 levels: dense SVD
    "splu": lambda: steady_state_numeric(fig2_at(30.0)[2]),  # 856 levels: pinned LU
    "expm": run_strobe,
}


def test_counted_bindings_see_every_call(monkeypatch):
    counted = load_worker(monkeypatch).COUNTED
    assert set(counted) <= set(RUNS), "a counted binding has no run here"
    counts = Counter()
    for name in counted:
        original = getattr(dynamics, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counting)
    for name in counted:
        counts.clear()
        RUNS[name]()
        if name in UNCALLED:
            assert counts[name] == 0, f"{UNCALLED[name]} called {name}"
        else:
            assert counts[name] > 0, f"{name} was called around its module binding"


COLD_START = """
import json, sys
import kickcool, kickcool.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
runs = [
    ["sweep", "--preset", "fig3"],
    ["sweep", "--preset", "fig3", "--with-fidelity"],
    ["device", "--preset", "device-paper"],
]
codes = [cli.main([*argv, "--output", f"{out}/{i}.csv"]) for i, argv in enumerate(runs)]
report = {"before": loaded()}
for key, argv in [
    ("evolved", ["evolve", "--preset", "fig2"]),
    ("strobed", ["strobe", "--preset", "fig2"]),
    ("pinned", ["steady", "--preset", "fig2", "--n-max", "700"]),
    ("svd", ["steady", "--preset", "fig2"]),
]:
    codes.append(cli.main([*argv, "--output", f"{out}/{key}.csv"]))
    report[key] = loaded()
print(json.dumps({"codes": codes, **report}))
"""


def test_sweep_and_device_never_import_scipy(tmp_path):
    # a fresh interpreter: this one has imported scipy through other tests
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 7
    assert report["before"] == []
    # the banded LU loads LAPACK's extension alone; only the SVD (components
    # of up to 600 levels) imports the scipy.linalg package
    for key in ("evolved", "strobed", "pinned"):
        assert "scipy.linalg._flapack" in report[key], key
        assert "scipy.linalg" not in report[key], key
    assert "scipy.linalg" in report["svd"]
    # modules stay loaded, so the last report holds what any of the runs loaded
    assert "scipy.integrate" not in report["svd"]
    assert "scipy.sparse" not in report["svd"]


# scipy.linalg._flapack is private and its file name is a build detail:
# whichever of the loader and scipy.linalg comes first, the routines must be
# the ones scipy's own lookup returns
LOADER_PIN = """
import sys
import numpy as np
from kickcool import dynamics

if sys.argv[1] == "scipy-first":
    import scipy.linalg
lapack = dynamics._flapack()
if sys.argv[1] == "loader-first":
    assert "scipy.linalg" not in sys.modules
import scipy.linalg
from scipy.linalg.lapack import get_lapack_funcs

assert lapack is sys.modules["scipy.linalg._flapack"]
for prefix, dtype in (("d", float), ("z", complex)):
    for name in ("gttrf", "gttrs"):
        assert get_lapack_funcs(name, (np.zeros(3, dtype),)) is getattr(lapack, prefix + name)

rng = np.random.default_rng(5000)
lower, main, upper, rhs = (
    rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (4999, 5000, 4999, 5000)
)
ours = dynamics._tridiagonal_lu(lower.copy(), main.copy(), upper.copy())(rhs.copy())
gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (lower, main, upper))
*factors, info = gttrf(lower, main, upper)
assert info == 0
theirs = gttrs(*factors, rhs)[0]
assert ours.tobytes() == theirs.tobytes()

a = rng.standard_normal((40, 30))
assert np.allclose(scipy.linalg.svd(a, compute_uv=False), np.linalg.svd(a, compute_uv=False))
print("ok")
"""


@pytest.mark.parametrize("order", ["loader-first", "scipy-first"])
def test_loader_returns_scipys_own_routines(order):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", LOADER_PIN, order],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


FALLBACK = """
import sys
import numpy as np
import scipy

scipy.__file__ = sys.argv[1]  # the loader searches an empty linalg/ beside it
from kickcool import dynamics

lapack = dynamics._flapack()
assert "scipy.linalg" in sys.modules
import scipy.linalg.lapack

assert lapack is scipy.linalg.lapack._flapack
x = dynamics._tridiagonal_lu(np.ones(2), np.full(3, 4.0), np.ones(2))(np.ones(3))
assert np.allclose(x, [3 / 14, 1 / 7, 3 / 14])
print("ok")
"""


def test_loader_falls_back_to_the_import_without_the_file(tmp_path):
    (tmp_path / "linalg").mkdir()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", FALLBACK, str(tmp_path / "__init__.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
