"""Preset outputs pinned by SHA-256 digest.

Re-running a preset twice (criterion 9) cannot notice a change that moves
bytes on both runs alike.  These digests were written at commit 067f153,
before the sweep tabulated its kick weights once per run, so any later
change to an output byte fails here.  Floats depend on the numpy and scipy
builds, so the test runs only on the versions the digests were made with.
"""
import hashlib

import numpy
import pytest
import scipy

from kickcool.cli import main

PINNED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

DIGESTS = {
    ("sweep", "fig3", False, "csv"): "125c36f6851d88d82ce690bdb66f6fb0060a48b7fe72b94240ea5c387b15f58e",
    ("sweep", "fig3", False, "json"): "51f75c329e780a51886222e74299cc808739139899fe0808c55a7cedc36acdc5",
    ("sweep", "fig3", True, "csv"): "cce95cc322e13fbd3429554c4e9d2e7d5c5515eba4704696527036ba76e2e1f2",
    ("sweep", "fig3", True, "json"): "668999a00a7d90168d07bfe3c48eed7f8306944fff3ee58d73d347f35eeec423",
    ("steady", "fig3", False, "csv"): "a1946e20b0cd7185e45aefdf1874611b7323008b94d5fe401066e6122f47bca9",
    ("steady", "fig3", False, "json"): "269ffcc5c31f08ad0b1ef21e3bfb71d3823cd8aa13180cfb06c59d58471be738",
    ("device", "device-paper", False, "csv"): "cf53ca6d156e4cafb9bde006ff13a4a29b71cbb5c93042c3ec1d06894f24cdda",
    ("device", "device-paper", False, "json"): "36e89b573bd18bd914e55a277d56c3737fc9c7c93f1062c6b4b5003c553cc669",
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
