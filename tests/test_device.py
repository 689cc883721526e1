import numpy as np
import pytest
from scipy.constants import e, hbar, k

from kickcool import (
    DeviceParams,
    coupling_from_geometry,
    derive_protocol,
    duty_cycle_schedule,
    gate_fluctuation_coupling,
)
from kickcool.constants import E_CHARGE, HBAR, K_B

OMEGA0 = 2 * np.pi * 1e8
EJ_PARKED = 4 * np.pi * 1e10 * hbar


def reference_device(**overrides):
    base = dict(
        e_j=EJ_PARKED,
        c_x=20e-18,
        c_g=20e-18,
        c_j=210e-18,
        v_x=0.25,
        resistance=50.0,
        temperature=0.01,
        omega0=OMEGA0,
        q_factor=2e5,
        g_override=2 * np.pi * 1e7,
    )
    base.update(overrides)
    return DeviceParams(**base)


class TestDeviceParams:
    def test_cooper_pair_bias(self):
        dev = reference_device()
        assert dev.n_x == pytest.approx(15.0, rel=0.10)

    def test_charging_energy_from_capacitances(self):
        dev = reference_device()
        assert dev.c_sigma == pytest.approx(250e-18)
        assert dev.charging_energy == pytest.approx(320e-6 * e, rel=0.01)

    def test_explicit_charging_energy_wins(self):
        dev = reference_device(e_c=300e-6 * e)
        assert dev.charging_energy == 300e-6 * e

    def test_needs_some_coupling_input(self):
        with pytest.raises(ValueError):
            reference_device(g_override=None)
        with pytest.raises(ValueError):
            reference_device(g_override=None, mass=1e-18)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            reference_device(q_factor=0.0)
        with pytest.raises(ValueError):
            reference_device(v_x=0.0)


class TestDeriveProtocol:
    def test_decay_rate_from_quality_factor(self):
        params, _ = derive_protocol(reference_device(), tau=25e-9, r_a=3e6)
        assert params.kappa == pytest.approx(np.pi * 1e3, rel=1e-12)

    def test_gate_fluctuation_coupling(self):
        _, env = derive_protocol(reference_device(), tau=25e-9, r_a=3e6)
        assert env.alpha_g == pytest.approx(1e-4, rel=0.20)

    def test_thermal_occupation_round_trip(self):
        dev = reference_device()
        params, _ = derive_protocol(dev, tau=25e-9, r_a=3e6)
        recovered = hbar * dev.omega0 / (k * np.log(1.0 + 1.0 / params.n_th))
        assert recovered == pytest.approx(dev.temperature, rel=1e-10)

    def test_strong_coupling_margin(self):
        params, _ = derive_protocol(reference_device(), tau=25e-9, r_a=3e6)
        assert params.g > 0 and params.kappa > 0
        assert params.g / params.kappa > 1e3

    def test_geometric_coupling_path(self):
        dev = reference_device(g_override=None, mass=1e-20, distance=1e-8)
        g_geo = coupling_from_geometry(dev)
        x_zpf = np.sqrt(hbar / (2.0 * dev.mass * dev.omega0))
        expected = 4.0 * dev.charging_energy * dev.n_x * x_zpf / (dev.distance * hbar)
        assert g_geo == pytest.approx(expected, rel=1e-12)
        params, _ = derive_protocol(dev, tau=25e-9, r_a=3e6)
        assert params.g == pytest.approx(g_geo)

    def test_override_conflict_detected(self):
        dev_geo = reference_device(g_override=None, mass=1e-20, distance=1e-8)
        g_geo = coupling_from_geometry(dev_geo)
        consistent = reference_device(
            g_override=g_geo * 1.1, mass=1e-20, distance=1e-8
        )
        params, _ = derive_protocol(consistent, tau=25e-9, r_a=3e6)
        assert params.g == pytest.approx(g_geo * 1.1)
        conflicting = reference_device(
            g_override=g_geo * 1.5, mass=1e-20, distance=1e-8
        )
        with pytest.raises(ValueError):
            derive_protocol(conflicting, tau=25e-9, r_a=3e6)

    @pytest.mark.parametrize("x", [720.0, 1e6])
    def test_cold_bath_occupation_takes_its_limit(self, x):
        # 1/expm1(x) overflows past x ~ 709.8; n_th is then exp(-x), which
        # reaches 0.0 past double range
        temperature = HBAR * OMEGA0 / (K_B * x)
        params, _ = derive_protocol(
            reference_device(temperature=temperature), tau=25e-9, r_a=3e6
        )
        assert params.n_th == np.exp(-HBAR * OMEGA0 / (K_B * temperature))
        assert (params.n_th > 0.0) == (x < 745.0)

    def test_derived_p_e_is_negligible_when_parked_high(self):
        params, _ = derive_protocol(reference_device(), tau=25e-9, r_a=3e6)
        assert params.p_e < 1e-40


class TestDutyCycleSchedule:
    def test_reference_cycle_closes(self):
        report = duty_cycle_schedule(
            g=2 * np.pi * 1e7, gamma_ej=40e6, r_a=3e6, tau=25e-9
        )
        assert report.closes
        assert report.cycle_budget == pytest.approx(0.275e-6, rel=1e-9)
        assert report.cycle_budget < report.period

    def test_instant_reset_limits_to_kick_time(self):
        report = duty_cycle_schedule(g=1e8, gamma_ej=1e15, r_a=1e6, tau=25e-9)
        assert report.max_kick_rate == pytest.approx(1.0 / 25e-9, rel=1e-6)

    def test_overclocked_cycle_flagged(self):
        report = duty_cycle_schedule(g=1e8, gamma_ej=40e6, r_a=100e6, tau=25e-9)
        assert not report.closes
        assert any("budget" in flag for flag in report.flags)

    def test_separation_flags(self):
        clean = duty_cycle_schedule(
            g=2 * np.pi * 1e7,
            gamma_ej=40e6,
            r_a=3e6,
            tau=25e-9,
            gamma0=0.51e6,
            kappa=np.pi * 1e3,
        )
        assert clean.flags == ()
        dirty = duty_cycle_schedule(
            g=1e6, gamma_ej=40e6, r_a=1e6, tau=25e-9, gamma0=0.5e6, kappa=np.pi * 1e3
        )
        assert any("decay rate" in flag for flag in dirty.flags)


def test_alpha_g_value():
    dev = reference_device()
    alpha = gate_fluctuation_coupling(dev)
    assert alpha == pytest.approx(9.9176e-5, rel=1e-4)


def test_constants_equal_scipy_bitwise():
    assert (E_CHARGE, K_B, HBAR) == (e, k, hbar)
