"""Preset outputs pinned by SHA-256 digest.

Re-running a preset twice (criterion 9) cannot notice a change that moves
bytes on both runs alike.  These digests were written at commit 067f153,
before the sweep tabulated its kick weights once per run, and the evolve
and strobe digests at commit a8dc9df, before evolve checked its samples as
one block, and the steady fig2 digests at commit 81ce10d, before the
null-space route took only the ground-state component's bands, so any
later change to an output byte fails here.  Floats depend on the numpy and scipy
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
    ("steady", "fig2", False, "csv"): "b1808667d81c3d6b051d02444fc02737326f857cb64cea18ab4756518fb39e30",
    ("steady", "fig2", False, "json"): "1ed77d540965357d7d821660fec1ac0919e3d41ad343ffcf5714cb0b35fad0a4",
    ("steady", "fig3", False, "csv"): "a1946e20b0cd7185e45aefdf1874611b7323008b94d5fe401066e6122f47bca9",
    ("steady", "fig3", False, "json"): "269ffcc5c31f08ad0b1ef21e3bfb71d3823cd8aa13180cfb06c59d58471be738",
    ("device", "device-paper", False, "csv"): "cf53ca6d156e4cafb9bde006ff13a4a29b71cbb5c93042c3ec1d06894f24cdda",
    ("device", "device-paper", False, "json"): "36e89b573bd18bd914e55a277d56c3737fc9c7c93f1062c6b4b5003c553cc669",
    ("evolve", "fig2", False, "csv"): "4c642a944dec7995f7256fb12ced4bfb784a3aefa142f051edbecc0940411b25",
    ("evolve", "fig2", False, "json"): "8006fb557a3e4aa9cb3b8beddb32de9da6a60ef7f1721d4c8570f435eb20fb37",
    ("strobe", "fig2", False, "csv"): "84432cc23e05285bfd9d6ebed688178a88746fe884f757f80a98791d1e3f7196",
    ("strobe", "fig2", False, "json"): "db702cf16b3d34267c1b8f4c7ae6f602ffd25a7b5158afe90a1b4c24fc72b875",
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
