from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import e, hbar

from kickcool import (
    ProtocolParams,
    QubitEnvironment,
    ValidityWarning,
    build_generator,
    build_kick_map,
    cooling_floor,
    corrected_steady_state,
    kick_fidelity,
    relaxation_rate,
    steady_state_analytic,
    steady_state_numeric,
    thermal_excitation_probability,
)

G_REF = 2 * np.pi * 1e7
KAPPA_REF = np.pi * 1e3
OMEGA0 = 2 * np.pi * 1e8
EJ_PARKED = 4 * np.pi * 1e10 * hbar  # ~83 ueV parked splitting


def reference_env(alpha_g=1e-4):
    return QubitEnvironment(
        alpha_g=alpha_g, temperature=0.01, e_j=EJ_PARKED, omega0=OMEGA0
    )


class TestRelaxationRate:
    def test_cold_limit(self):
        # coth -> 1 once hbar*omega >> k_B T
        env = QubitEnvironment(
            alpha_g=2e-4, temperature=1e-6, e_j=EJ_PARKED, omega0=OMEGA0
        )
        omega = 1e11
        assert relaxation_rate(env, omega) == pytest.approx(
            np.pi * env.alpha_g * omega, rel=1e-12
        )

    def test_parked_splitting_rate(self):
        env = reference_env()
        gamma = relaxation_rate(env, env.e_j / hbar)
        assert gamma == pytest.approx(40e6, rel=0.15)

    def test_resonator_frequency_rate(self):
        env = reference_env()
        gamma = relaxation_rate(env, OMEGA0)
        assert gamma == pytest.approx(0.56e6, rel=0.30)

    def test_monotone_in_frequency_and_temperature(self):
        env = reference_env()
        omegas = np.linspace(OMEGA0, EJ_PARKED / hbar, 40)
        rates = [relaxation_rate(env, w) for w in omegas]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        temps = [0.005, 0.01, 0.05, 0.2]
        rates_t = [
            relaxation_rate(
                QubitEnvironment(1e-4, t, EJ_PARKED, OMEGA0), OMEGA0
            )
            for t in temps
        ]
        assert all(b > a for a, b in zip(rates_t, rates_t[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            relaxation_rate(reference_env(), 0.0)


class TestThermalExcitation:
    def test_large_splitting_freezes_out(self):
        env = QubitEnvironment(
            alpha_g=1e-4, temperature=0.01, e_j=100e-6 * e, omega0=OMEGA0
        )
        p = thermal_excitation_probability(env)
        assert 0.0 <= p < 1e-40

    def test_vanishing_splitting_half(self):
        env = QubitEnvironment(
            alpha_g=1e-4, temperature=0.01, e_j=1e-32, omega0=OMEGA0
        )
        assert thermal_excitation_probability(env) == pytest.approx(0.5, rel=1e-6)

    def test_within_range(self):
        for e_j in [1e-26, 1e-24, 1e-23]:
            env = QubitEnvironment(1e-4, 0.01, e_j, OMEGA0)
            p = thermal_excitation_probability(env)
            assert 0.0 < p <= 0.5


class TestKickFidelity:
    def test_no_decay_perfect(self):
        assert kick_fidelity(0.0, G_REF, 25e-9, level=1) == 1.0

    def test_half_pi_closed_form(self):
        # sin(2*g*tau) = sin(pi) = 0 kills the oscillatory term
        gamma0 = 0.56e6
        tau = 25e-9
        g = (np.pi / 2.0) / tau
        f = kick_fidelity(gamma0, g, tau, level=1)
        assert f == pytest.approx(1.0 - gamma0 * tau / 2.0, rel=1e-12)
        assert 1.0 - f == pytest.approx(7e-3, rel=1e-12)

    def test_low_fidelity_warns(self):
        with pytest.warns(ValidityWarning):
            kick_fidelity(1e7, (np.pi / 2) / 25e-9, 25e-9, level=1)

    def test_validity_warning_on_long_kick(self):
        with pytest.warns(ValidityWarning):
            kick_fidelity(2e6, 1e7, 1e-6, level=1)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            kick_fidelity(1e5, G_REF, 25e-9, level=0)


class TestCorrectedSteadyState:
    def test_zero_corrections_bitwise_identical(self):
        params = ProtocolParams(
            g=G_REF, tau=(np.pi / 2) / G_REF, r_a=100 * KAPPA_REF,
            kappa=KAPPA_REF, n_th=1.0,
        )
        kick = build_kick_map(params.g, params.tau, 0.0, 60)
        plain = steady_state_analytic(params, kick, 60)
        env = reference_env(alpha_g=0.0)
        corrected = corrected_steady_state(replace(params, p_e=0.0), env, 60)
        assert np.array_equal(
            corrected.populations.populations, plain.populations.populations
        )

    def test_reset_error_floor_point(self):
        # direct evaluation of the modified level-1 ratio at n_th = 0:
        # p1/p0 = p*R / (1 + (1-p)*R) with R = 1e3, p = 1e-4
        params = ProtocolParams(
            g=G_REF, tau=(np.pi / 2) / G_REF, r_a=1000 * KAPPA_REF,
            kappa=KAPPA_REF, n_th=0.0,
        )
        env = reference_env(alpha_g=0.0)
        result = corrected_steady_state(replace(params, p_e=1e-4), env, 60)
        p = result.populations.populations
        expected = 0.1 / 1000.9
        assert p[1] / p[0] == pytest.approx(expected, rel=1e-9)
        assert result.mean_n_s == pytest.approx(expected, rel=0.05)

    def test_mean_nondecreasing_in_reset_error(self):
        params = ProtocolParams(
            g=G_REF, tau=(np.pi / 2) / G_REF, r_a=200 * KAPPA_REF,
            kappa=KAPPA_REF, n_th=1.7,
        )
        env = reference_env(alpha_g=0.0)
        means = [
            corrected_steady_state(replace(params, p_e=p), env, 80).mean_n_s
            for p in [0.0, 1e-5, 1e-4, 1e-3, 1e-2]
        ]
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_mean_nondecreasing_as_fidelity_degrades(self):
        # holds whenever the reset error is below n_th/(2 n_th + 1); with a
        # cold bath a stronger kick instead pumps the excited fraction
        params = ProtocolParams(
            g=G_REF, tau=(np.pi / 2) / G_REF, r_a=200 * KAPPA_REF,
            kappa=KAPPA_REF, n_th=1.7,
        )
        means = []
        for alpha_g in [0.0, 1e-5, 1e-4, 5e-4]:
            env = reference_env(alpha_g=alpha_g)
            means.append(
                corrected_steady_state(replace(params, p_e=1e-4), env, 80).mean_n_s
            )
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_reset_error_formula_matches_generator_kernel(self):
        # the generalized kick with p_e > 0 must satisfy the same detailed
        # balance the modified product formula encodes
        p_e = 0.2
        params = ProtocolParams(
            g=G_REF, tau=1.0 / G_REF, r_a=50 * KAPPA_REF,
            kappa=KAPPA_REF, n_th=1.0, p_e=p_e,
        )
        env = reference_env(alpha_g=0.0)
        formula = corrected_steady_state(params, env, 100)
        kick = build_kick_map(params.g, params.tau, p_e, 100)
        numeric = steady_state_numeric(build_generator(params, kick, 100))
        np.testing.assert_allclose(
            formula.populations.populations,
            numeric.populations.populations,
            atol=1e-8,
        )

    def test_fidelity_correction_engages(self):
        params = ProtocolParams(
            g=G_REF, tau=(np.pi / 2) / G_REF, r_a=1000 * KAPPA_REF,
            kappa=KAPPA_REF, n_th=10.0,
        )
        env = reference_env()
        with_f = corrected_steady_state(params, env, 200)
        without_f = corrected_steady_state(params, replace(env, alpha_g=0.0), 200)
        assert with_f.mean_n_s > without_f.mean_n_s


class TestCoolingFloor:
    def test_ideal_qubit_no_floor(self):
        params = ProtocolParams(
            g=G_REF, tau=25e-9, r_a=3e6, kappa=KAPPA_REF, n_th=1.0
        )
        env = QubitEnvironment(
            alpha_g=0.0, temperature=0.01, e_j=100e-6 * e, omega0=OMEGA0
        )
        assert cooling_floor(params, env) < 1e-40

    def test_decay_dominated_floor(self):
        params = ProtocolParams(
            g=(np.pi / 2) / 25e-9, tau=25e-9, r_a=3e6, kappa=KAPPA_REF, n_th=1.0
        )
        env = reference_env()
        floor = cooling_floor(params, env)
        assert floor == pytest.approx(7e-3, rel=0.10)

    def test_reset_error_dominated_floor(self):
        params = ProtocolParams(
            g=G_REF, tau=25e-9, r_a=3e6, kappa=KAPPA_REF, n_th=0.0
        )
        env = QubitEnvironment(
            alpha_g=1e-4,
            temperature=0.05,
            e_j=np.log((1 - 1e-4) / 1e-4) * 1.380649e-23 * 0.05,
            omega0=OMEGA0,
        )
        assert cooling_floor(params, env) == pytest.approx(1e-4, rel=1e-6)


def test_environment_validation():
    with pytest.raises(ValueError):
        QubitEnvironment(alpha_g=-1e-4, temperature=0.01, e_j=1e-23, omega0=OMEGA0)
    with pytest.raises(ValueError):
        QubitEnvironment(alpha_g=1e-4, temperature=0.0, e_j=1e-23, omega0=OMEGA0)
    with pytest.raises(ValueError):
        QubitEnvironment(alpha_g=1e-4, temperature=0.01, e_j=0.0, omega0=OMEGA0)
