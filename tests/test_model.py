import warnings

import numpy as np
import pytest

from kickcool import (
    KickMap,
    PhononDistribution,
    ProtocolParams,
    TruncationOverflowWarning,
    ValidityWarning,
    apply_kick,
    build_kick_map,
    default_n_max,
    mean_phonon,
    number_state,
    thermal_distribution,
)
from kickcool.model import TAIL_TOL, _check_populations

from kick_reference import kick_matrix


class TestKickMap:
    def test_full_swap_at_half_pi(self):
        kick = build_kick_map(g=2.0, tau=np.pi / 4.0, p_e=0.0, n_max=10)
        assert kick.ce2[0] == pytest.approx(1.0, abs=1e-15)

    def test_ground_level_always_survives(self):
        for theta in [0.1, np.pi / 8, 1.0, np.pi, 5.7]:
            kick = build_kick_map(g=theta, tau=1.0, p_e=0.0, n_max=5)
            assert kick.cg2[0] == 1.0

    def test_eighth_pi_swap_weight(self):
        # sin^2(pi/8) = (1 - cos(pi/4))/2
        kick = build_kick_map(g=1.0, tau=np.pi / 8.0, p_e=0.0, n_max=5)
        assert kick.ce2[0] == pytest.approx((1.0 - np.sqrt(0.5)) / 2.0, abs=1e-15)
        assert kick.ce2[0] == pytest.approx(0.146447, abs=1e-6)

    @pytest.mark.parametrize("theta", [0.3, 1.0, np.pi / 2, 2.9, 6.0])
    def test_pair_weights_complementary(self, theta):
        kick = build_kick_map(g=theta, tau=1.0, p_e=0.0, n_max=40)
        assert np.abs(kick.ce2[:-1] + kick.cg2[1:] - 1.0).max() < 1e-12
        assert np.all(kick.ce2 >= 0.0) and np.all(kick.ce2 <= 1.0)
        assert np.all(kick.cg2 >= 0.0) and np.all(kick.cg2 <= 1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            build_kick_map(g=-1.0, tau=1.0, p_e=0.0, n_max=5)
        with pytest.raises(ValueError):
            build_kick_map(g=1.0, tau=0.0, p_e=0.0, n_max=5)
        with pytest.raises(ValueError):
            build_kick_map(g=1.0, tau=1.0, p_e=1.5, n_max=5)
        with pytest.raises(ValueError):
            build_kick_map(g=1.0, tau=1.0, p_e=0.0, n_max=0)

    def test_weights_are_frozen_and_table_slices_shared(self):
        ce2, cg2 = np.full(6, 0.5), np.full(6, 0.5)
        kick = KickMap(ce2=ce2, cg2=cg2, p_e=0.0, theta=1.0)
        ce2[0] = 0.0  # a writable input is copied
        assert kick.ce2[0] == 0.5 and not kick.ce2.flags.writeable
        view = KickMap(ce2=kick.ce2[:4], cg2=kick.cg2[:4], p_e=0.1, theta=1.0)
        assert np.shares_memory(view.ce2, kick.ce2) and view.n_max == 3


class TestApplyKick:
    def test_single_phonon_swap_to_vacuum(self):
        kick = build_kick_map(g=1.0, tau=np.pi / 2.0, p_e=0.0, n_max=8)
        out = apply_kick(number_state(1, 8), kick)
        assert out.populations[0] == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_invariant_under_ground_kick(self):
        kick = build_kick_map(g=1.0, tau=1.234, p_e=0.0, n_max=8)
        out = apply_kick(number_state(0, 8), kick)
        assert np.array_equal(out.populations, number_state(0, 8).populations)

    def test_excited_kick_deposits_phonon(self):
        kick = build_kick_map(g=1.0, tau=np.pi / 2.0, p_e=1.0, n_max=8)
        out = apply_kick(number_state(0, 8), kick)
        assert out.populations[1] == pytest.approx(1.0, abs=1e-12)

    def test_probability_conserved(self):
        rng = np.random.default_rng(7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationOverflowWarning)
            for _ in range(50):
                p = rng.random(31)
                p /= p.sum()
                dist = PhononDistribution(p, check_tail=False)
                kick = build_kick_map(
                    g=rng.uniform(0.05, 6.0), tau=1.0,
                    p_e=rng.choice([0.0, 0.4, 1.0]), n_max=30,
                )
                out = apply_kick(dist, kick)
                assert abs(out.populations.sum() - p.sum()) < 1e-12

    def test_ground_kick_never_heats(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = rng.random(31)
            p /= p.sum()
            dist = PhononDistribution(p, check_tail=False)
            kick = build_kick_map(g=rng.uniform(0.05, 6.0), tau=1.0, p_e=0.0, n_max=30)
            assert mean_phonon(apply_kick(dist, kick)) <= mean_phonon(dist) + 1e-12

    def test_zero_area_is_identity(self):
        kick = build_kick_map(g=1.0, tau=1e-300, p_e=0.3, n_max=40)
        p = thermal_distribution(0.8, 40)
        out = apply_kick(p, kick)
        np.testing.assert_allclose(out.populations, p.populations, atol=1e-15)

    def test_no_positive_area_is_identity_below_4pi(self):
        # level spacings scale as sqrt(n), so no theta > 0 revives the
        # identity across levels: at theta = pi the lowest swap closes
        # (ce2[0] = 0) but the next one does not
        kick_pi = build_kick_map(g=np.pi, tau=1.0, p_e=0.0, n_max=30)
        assert kick_pi.ce2[0] == pytest.approx(0.0, abs=1e-30)
        assert kick_pi.ce2[1] > 0.9
        thetas = np.linspace(1e-3, 4 * np.pi, 4000)
        departure = np.array(
            [build_kick_map(t, 1.0, 0.0, 30).ce2.max() for t in thetas]
        )
        assert departure.min() > 0.0
        # away from the trivial theta -> 0 limit the departure is macroscopic
        assert departure[thetas >= 0.5].min() > 0.05

    def test_size_mismatch_raises(self):
        kick = build_kick_map(g=1.0, tau=1.0, p_e=0.0, n_max=10)
        with pytest.raises(ValueError):
            apply_kick(number_state(0, 12), kick)

    def test_maser_push_into_top_warns(self):
        kick = build_kick_map(g=1.0, tau=1.0, p_e=1.0, n_max=4)
        dist = number_state(3, 4)
        with pytest.warns(TruncationOverflowWarning):
            apply_kick(dist, kick)

    def test_matches_dense_matrix_form(self):
        rng = np.random.default_rng(3)
        p = rng.random(21)
        p[-3:] = 0.0
        p /= p.sum()
        dist = PhononDistribution(p, check_tail=False)
        kick = build_kick_map(g=1.3, tau=1.0, p_e=0.35, n_max=20)
        m = kick_matrix(kick)
        np.testing.assert_allclose(
            apply_kick(dist, kick).populations, m @ p, atol=1e-15
        )
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-14)


class TestThermalDistribution:
    def test_zero_occupation_is_vacuum(self):
        dist = thermal_distribution(0.0, 20)
        assert dist.populations[0] == 1.0
        assert dist.populations[1:].max() == 0.0

    def test_unit_occupation_halves(self):
        dist = thermal_distribution(1.0, 80)
        assert dist.populations[0] == pytest.approx(0.5, rel=1e-12)
        ratios = dist.populations[1:10] / dist.populations[0:9]
        np.testing.assert_allclose(ratios, 0.5, rtol=1e-12)

    def test_mean_matches_occupation(self):
        dist = thermal_distribution(1.7, 60)
        assert mean_phonon(dist) == pytest.approx(1.7, rel=1e-6)

    def test_tight_truncation_warns(self):
        with pytest.warns(TruncationOverflowWarning):
            thermal_distribution(1.7, 30)

    def test_mean_trivial_cases(self):
        assert mean_phonon(number_state(0, 5)) == 0.0
        assert mean_phonon(number_state(3, 5)) == 3.0


class TestPhononDistribution:
    def test_rounding_noise_clamped(self):
        p = np.array([0.5, 0.5, -5e-13])
        dist = PhononDistribution(p)
        assert dist.populations.min() == 0.0
        assert dist.populations.sum() == pytest.approx(1.0, abs=1e-15)

    def test_genuine_negative_raises(self):
        with pytest.raises(ValueError):
            PhononDistribution(np.array([0.6, 0.4, -1e-6]))

    def test_unnormalized_raises(self):
        with pytest.raises(ValueError):
            PhononDistribution(np.array([0.5, 0.4]))

    def test_immutable(self):
        dist = thermal_distribution(0.5, 30)
        with pytest.raises(ValueError):
            dist.populations[0] = 0.0


class TestBlockCheck:
    """The sweep's block check applies PhononDistribution's rules row by row."""

    @staticmethod
    def block():
        # four rows over levels 0..5 whose top entries sit far below TAIL_TOL
        rows = np.array([[(1e-3 / (k + 1)) ** n for n in range(6)] for k in range(4)])
        return rows / rows.sum(axis=-1, keepdims=True)

    def test_valid_block_is_left_as_is(self):
        block = self.block()
        expected = block.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _check_populations(block) is block
        assert block.tobytes() == expected.tobytes()

    def test_nan_row_raises(self):
        block = self.block()
        block[2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _check_populations(block)
        with pytest.raises(ValueError, match="non-finite"):
            PhononDistribution(block[2])

    def test_rounding_noise_is_clamped_and_renormalised(self):
        block = self.block()
        block[1, 4] = -1e-13
        before = block.copy()
        _check_populations(block)
        clamped = np.maximum(before[1], 0.0)
        clamped /= clamped.sum()
        assert block[1, 4] == 0.0
        assert block[1].tobytes() == clamped.tobytes()
        assert block[1].tobytes() == PhononDistribution(before[1]).populations.tobytes()
        others = [0, 2, 3]
        assert block[others].tobytes() == before[others].tobytes()

    def test_negative_beyond_the_clamp_raises(self):
        block = self.block()
        block[3, 2] = -1e-11
        with pytest.raises(ValueError, match="below the clamp threshold"):
            _check_populations(block)
        with pytest.raises(ValueError, match="below the clamp threshold"):
            PhononDistribution(block[3])

    def test_sum_off_by_two_in_a_billion_raises(self):
        block = self.block()
        block[0] *= 1.0 + 2e-9
        with pytest.raises(ValueError, match="sum to"):
            _check_populations(block)
        with pytest.raises(ValueError, match="sum to"):
            PhononDistribution(block[0])

    def test_row_of_rounding_noise_alone_raises(self):
        # clamping leaves nothing to renormalise: 0/0 must not pass as a sum
        block = self.block()
        noise = np.array([0.0, -1e-13, 0.0, 0.0, -2e-13, 0.0])
        block[2] = noise
        with pytest.raises(ValueError, match=r"sum to .*nan"):
            _check_populations(block)
        with pytest.raises(ValueError, match=r"sum to .*nan"):
            PhononDistribution(noise)

    def test_tail_warns_once_per_row(self):
        block = self.block()
        block[[0, 2]] = np.full(6, 1.0 / 6.0)
        assert block[1, -1] < TAIL_TOL and block[3, -1] < TAIL_TOL
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _check_populations(block)
        assert [w.category for w in caught] == [TruncationOverflowWarning] * 2
        for k in range(4):
            with warnings.catch_warnings(record=True) as row_caught:
                warnings.simplefilter("always")
                PhononDistribution(block[k])
            assert len(row_caught) == (1 if k in (0, 2) else 0)
            if row_caught:
                assert str(row_caught[0].message) == str(caught[k // 2].message)


class TestProtocolParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(g=-1, tau=1e-8, r_a=1e6, kappa=1e3, n_th=1.0)
        with pytest.raises(ValueError):
            ProtocolParams(g=1e7, tau=1e-8, r_a=1e6, kappa=1e3, n_th=-0.5)
        with pytest.raises(ValueError):
            ProtocolParams(g=1e7, tau=1e-8, r_a=1e6, kappa=1e3, n_th=1.0, p_e=2.0)

    def test_zero_rates_allowed(self):
        params = ProtocolParams(g=1e7, tau=1e-8, r_a=0.0, kappa=0.0, n_th=1.0)
        assert params.ra_over_kappa == np.inf or params.r_a == 0.0

    def test_long_duty_cycle_warns(self):
        with pytest.warns(ValidityWarning):
            ProtocolParams(g=1e7, tau=1e-6, r_a=1e6, kappa=1e3, n_th=1.0)

    def test_slow_kick_against_damping_warns(self):
        with pytest.warns(ValidityWarning):
            ProtocolParams(g=1e7, tau=1e-4, r_a=1e3, kappa=1e3, n_th=1.0)

    def test_pulse_area(self):
        params = ProtocolParams(g=2e7, tau=2.5e-8, r_a=1e6, kappa=1e3, n_th=1.0)
        assert params.theta == pytest.approx(0.5)


def test_default_n_max_grows_with_occupation():
    assert default_n_max(0.0) == 60
    assert default_n_max(1.7) == 60
    assert default_n_max(10.0) > 60
    sizes = [default_n_max(n) for n in [1.0, 10.0, 50.0, 100.0]]
    assert sizes == sorted(sizes)
    for n_th in [0.5, 5.0, 42.0]:
        q = n_th / (n_th + 1.0)
        assert q ** default_n_max(n_th) <= 1e-12
