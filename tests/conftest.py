import pytest
from hypothesis import settings

from kickcool import dynamics

# Derandomized so every run draws the same examples; no example database,
# so a run writes nothing into the checkout.
settings.register_profile(
    "kickcool", derandomize=True, database=None, max_examples=100, deadline=5000
)
settings.load_profile("kickcool")


@pytest.fixture
def undershooting_solve(monkeypatch):
    """Every solve of ``dynamics._tridiagonal_lu`` lowers the last entry of the
    first of the stepper's eight blocks by 1e-11: the stepped top level then
    falls by 2e-11, far below the -1e-12 clamp."""
    lu = dynamics._tridiagonal_lu

    def undershooting(lower, main, upper):
        solve = lu(lower, main, upper)
        levels = main.size // 8

        def undershot(rhs):
            out = solve(rhs)
            out[levels - 1] -= 1e-11
            return out

        return undershot

    monkeypatch.setattr(dynamics, "_tridiagonal_lu", undershooting)
