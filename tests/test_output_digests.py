"""Preset outputs pinned by SHA-256 digest.

Re-running a preset twice (criterion 9) cannot notice a change that moves
bytes on both runs alike.  These digests were written at commit 067f153,
before the sweep tabulated its kick weights once per run, and the evolve
and strobe digests at commit a8dc9df, before evolve checked its samples as
one block, and the steady fig2 digests at commit 81ce10d, before the
null-space route took only the ground-state component's bands, so any
later change to an output byte fails here.  The sweep, evolve and strobe
digests and the steady JSON digests were rewritten once since, when every
level mean moved from a BLAS dot to numpy's own sum and strobe's damping
period from a dense expm to the banded stepper, and the evolve digests once
more, when evolve moved from BDF to the same stepper between its samples
(mean_n moved by up to 1.1e-10 and p0 by 6.9e-11, BDF's own error).
Floats depend on the numpy and scipy builds, so the test runs only on the
versions the digests were made with.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from kickcool.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

PINNED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

DIGESTS = {
    ("sweep", "fig3", False, "csv"): "a46d0f618a75bbcc340831f387fa7aa4b2deebe439c179c2f3386367b1ccf97f",
    ("sweep", "fig3", False, "json"): "5c9414ae735e5761aacc2a54c7d0dce7a4c16c1b87d1aef669fa355775513381",
    ("sweep", "fig3", True, "csv"): "d5ff3e009ef06ccca14dd369a6104cb63c14acaeee499a0840ce11604bc585f3",
    ("sweep", "fig3", True, "json"): "6d715cc8e2165b2a6043e3f8368650ff53364146b2d982e7069f715031dc4696",
    ("steady", "fig2", False, "csv"): "b1808667d81c3d6b051d02444fc02737326f857cb64cea18ab4756518fb39e30",
    ("steady", "fig2", False, "json"): "f4c3ef91e81104df3159add93e4372176b936401b2007c52da5250c84ea8abd1",
    ("steady", "fig3", False, "csv"): "a1946e20b0cd7185e45aefdf1874611b7323008b94d5fe401066e6122f47bca9",
    ("steady", "fig3", False, "json"): "4a5b285a18c1941ce029b9751d2ffefb56a3a446acb7457313c506731910720b",
    ("device", "device-paper", False, "csv"): "cf53ca6d156e4cafb9bde006ff13a4a29b71cbb5c93042c3ec1d06894f24cdda",
    ("device", "device-paper", False, "json"): "36e89b573bd18bd914e55a277d56c3737fc9c7c93f1062c6b4b5003c553cc669",
    ("evolve", "fig2", False, "csv"): "c9a2bb3e8c31f0043b58bf14f00c0cfe7e909fc02ff6fd54070effafd34d44f8",
    ("evolve", "fig2", False, "json"): "6b663775f305c104a7eba168ccb44804fb5a4e2ec0899a0262c8318cd02f46dd",
    ("strobe", "fig2", False, "csv"): "1acca57c4cc59e0b7f23888165833b889a21d5496e8319d96af7cd2002a2c1dc",
    ("strobe", "fig2", False, "json"): "4532987d9bf66adfb5fbe0467b5753e1002561664cd4fed4d48469dfb52fe3c5",
}


@pytest.mark.parametrize("mode, preset, with_fidelity, fmt", sorted(DIGESTS))
def test_preset_output_matches_pinned_digest(tmp_path, mode, preset, with_fidelity, fmt):
    installed = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if installed != PINNED_VERSIONS:
        pytest.skip(
            f"digests pinned with numpy {PINNED_VERSIONS['numpy']}, scipy "
            f"{PINNED_VERSIONS['scipy']}; installed numpy {installed['numpy']}, "
            f"scipy {installed['scipy']}"
        )
    out = tmp_path / f"out.{fmt}"
    argv = [mode, "--preset", preset, "--format", fmt, "--output", str(out)]
    assert main(argv + (["--with-fidelity"] if with_fidelity else [])) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == DIGESTS[(mode, preset, with_fidelity, fmt)]


THREADED_RUNS = """
import sys
from kickcool.cli import main
out = sys.argv[1]
codes = [
    main(["sweep", "--preset", "fig3", "--output", f"{out}/sweep.csv"]),
    main(["strobe", "--preset", "fig2", "--output", f"{out}/strobe.csv"]),
    main(["evolve", "--preset", "fig2", "--output", f"{out}/evolve.csv"]),
]
sys.exit(max(codes))
"""


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # fig3 reaches 40569 levels, where a BLAS dot splits across threads
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
        subprocess.run(
            [sys.executable, "-c", THREADED_RUNS, str(out)],
            env=env, capture_output=True, timeout=120, check=True,
        )
        outputs[threads] = {
            name: (out / name).read_bytes() for name in ("sweep.csv", "strobe.csv", "evolve.csv")
        }
    assert outputs["1"] == outputs["2"]
