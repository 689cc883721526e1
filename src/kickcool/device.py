"""Mapping from circuit-level device quantities to protocol parameters.

Inputs are plain SI (farad, volt, ohm, kelvin, joule, rad/s); outputs are
the model-level rates.  The coupling can be computed from the resonator
mass and the qubit-resonator gap, or supplied directly when those are not
known; supplying both cross-checks them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import E_CHARGE, HBAR, K_B
from .corrections import QubitEnvironment, thermal_excitation_probability
from .model import ProtocolParams


@dataclass(frozen=True)
class DeviceParams:
    """Physical parameters of the qubit-resonator circuit.

    e_j         : Josephson energy (J)
    c_x, c_g, c_j : coupling, gate and junction capacitances (F)
    v_x         : bias voltage on the resonator (V)
    resistance  : fluctuation impedance of the voltage lines (ohm)
    temperature : operating temperature (K)
    omega0      : resonator angular frequency (rad/s)
    q_factor    : resonator quality factor
    e_c         : charging energy (J); derived from the capacitances if None
    mass, distance : resonator mass (kg) and qubit-resonator gap (m) for the
                  coupling formula; g_override (rad/s) bypasses them

    The gate voltage enters no derived quantity, so it is not a field.
    """

    e_j: float
    c_x: float
    c_g: float
    c_j: float
    v_x: float
    resistance: float
    temperature: float
    omega0: float
    q_factor: float
    e_c: float | None = None
    mass: float | None = None
    distance: float | None = None
    g_override: float | None = None

    def __post_init__(self) -> None:
        positive = {
            "e_j": self.e_j,
            "c_x": self.c_x,
            "c_g": self.c_g,
            "c_j": self.c_j,
            "resistance": self.resistance,
            "temperature": self.temperature,
            "omega0": self.omega0,
            "q_factor": self.q_factor,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.v_x == 0:
            raise ValueError("v_x must be non-zero")
        if self.e_c is not None and self.e_c <= 0:
            raise ValueError("e_c must be positive when given")
        has_md = self.mass is not None and self.distance is not None
        if (self.mass is None) != (self.distance is None):
            raise ValueError("mass and distance must be supplied together")
        if not has_md and self.g_override is None:
            raise ValueError("need either (mass, distance) or g_override")

    @property
    def c_sigma(self) -> float:
        return self.c_x + self.c_g + self.c_j

    @property
    def charging_energy(self) -> float:
        """E_c = e^2 / (2 C_sigma) unless given explicitly."""
        return self.e_c if self.e_c is not None else E_CHARGE**2 / (2.0 * self.c_sigma)

    @property
    def n_x(self) -> float:
        """Cooper-pair number bias C_x V_x / (2e)."""
        return self.c_x * abs(self.v_x) / (2.0 * E_CHARGE)


@dataclass(frozen=True)
class ScheduleReport:
    """Feasibility of one kick-and-reset cycle at the requested rate."""

    tau: float
    reset_time: float
    cycle_budget: float
    period: float
    closes: bool
    max_kick_rate: float
    flags: tuple[str, ...]


def coupling_from_geometry(dev: DeviceParams) -> float:
    """g = 4 E_c n_x x_zpf / (d hbar) with x_zpf = sqrt(hbar / 2 m omega0)."""
    if dev.mass is None or dev.distance is None:
        raise ValueError("mass and distance are required for the geometric coupling")
    x_zpf = math.sqrt(HBAR / (2.0 * dev.mass * dev.omega0))
    return 4.0 * dev.charging_energy * dev.n_x * x_zpf / (dev.distance * HBAR)


def gate_fluctuation_coupling(dev: DeviceParams) -> float:
    """alpha_g = 2 e^2 R (C_x^2 + C_g^2) / (pi hbar C_sigma^2), dimensionless."""
    return (
        2.0
        * E_CHARGE**2
        * dev.resistance
        * (dev.c_x**2 + dev.c_g**2)
        / (math.pi * HBAR * dev.c_sigma**2)
    )


def derive_protocol(
    dev: DeviceParams, tau: float, r_a: float
) -> tuple[ProtocolParams, QubitEnvironment]:
    """Derive the protocol parameters and noise environment of a device.

    Parameters
    ----------
    dev : device quantities (see DeviceParams)
    tau : kick duration (s), passed through unchanged
    r_a : kick repetition rate (1/s), passed through unchanged

    Returns
    -------
    (ProtocolParams, QubitEnvironment) with
      g     from the geometric formula or the override (both given: they
            must agree within 20%, and the override wins),
      kappa = omega0 / Q,
      n_th  = 1 / (exp(hbar*omega0 / k_B T) - 1),
      alpha_g from the capacitance network, and
      p_e   the thermal excitation probability of the parked qubit.
    ProtocolParams raises ValueError for a tau that is not positive or a
    negative r_a.
    """
    g_geo = (
        coupling_from_geometry(dev)
        if dev.mass is not None and dev.distance is not None
        else None
    )
    if dev.g_override is not None and g_geo is not None:
        mismatch = abs(dev.g_override - g_geo) / dev.g_override
        if mismatch > 0.20:
            raise ValueError(
                f"g_override {dev.g_override:.4g} and geometric coupling "
                f"{g_geo:.4g} disagree by {mismatch:.0%} (> 20%)"
            )
    g = dev.g_override if dev.g_override is not None else g_geo
    assert g is not None  # guaranteed by DeviceParams validation
    if g <= 0:
        raise ValueError("derived coupling must be positive")

    kappa = dev.omega0 / dev.q_factor
    x = HBAR * dev.omega0 / (K_B * dev.temperature)
    try:
        n_th = 1.0 / math.expm1(x)
    except OverflowError:  # x > ~709.8: n_th = exp(-x), 0.0 past double range
        n_th = math.exp(-x)
    env = QubitEnvironment(
        alpha_g=gate_fluctuation_coupling(dev),
        temperature=dev.temperature,
        e_j=dev.e_j,
        omega0=dev.omega0,
    )
    params = ProtocolParams(
        g=g,
        tau=tau,
        r_a=r_a,
        kappa=kappa,
        n_th=n_th,
        p_e=thermal_excitation_probability(env),
    )
    return params, env


def duty_cycle_schedule(
    g: float,
    gamma_ej: float,
    r_a: float,
    tau: float,
    gamma0: float | None = None,
    kappa: float | None = None,
) -> ScheduleReport:
    """Check that kick plus qubit reset fit inside one repetition period.

    The reset window is 10 / Gamma(E_J): ten decay times leave a residual
    excitation of e^-10.  The report also flags the time-scale separations
    the protocol relies on when the corresponding rates are supplied: g at
    least 10x above Gamma(omega0) and kappa, decay and damping during the
    kick small (Gamma0*tau <= 0.05, kappa*tau <= 0.01).
    Report-only: nothing raises.
    """
    if min(g, gamma_ej, r_a, tau) <= 0:
        raise ValueError("g, gamma_ej, r_a and tau must be positive")
    reset_time = 10.0 / gamma_ej
    budget = tau + reset_time
    period = 1.0 / r_a
    flags: list[str] = []
    if budget > period:
        flags.append(
            f"cycle budget {budget:.3e} s exceeds the kick period {period:.3e} s"
        )
    if gamma0 is not None:
        if g < 10.0 * gamma0:
            flags.append(f"coupling g is only {g / gamma0:.1f}x the qubit decay rate")
        if gamma0 * tau > 0.05:
            flags.append(f"qubit decay during the kick: Gamma0*tau = {gamma0 * tau:.3g}")
    if kappa is not None:
        if g < 10.0 * kappa:
            flags.append(f"coupling g is only {g / kappa:.1f}x the resonator decay rate")
        if kappa * tau > 0.01:
            flags.append(f"damping during the kick: kappa*tau = {kappa * tau:.3g}")
    return ScheduleReport(
        tau=tau,
        reset_time=reset_time,
        cycle_budget=budget,
        period=period,
        closes=budget <= period,
        max_kick_rate=1.0 / budget,
        flags=tuple(flags),
    )
