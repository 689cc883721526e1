"""Model invariants checked on generated protocol parameters."""
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kickcool import (
    NonNormalizableError,
    PhononDistribution,
    ProtocolParams,
    QubitEnvironment,
    TruncationOverflowWarning,
    apply_kick,
    build_generator,
    build_kick_map,
    corrected_steady_state,
    damping_propagator,
    default_n_max,
    kick_oracle,
    mean_phonon,
    steady_state_analytic,
    steady_state_longtime,
    steady_state_numeric,
)
from kickcool.cli import RunConfig, SweepSpec, _run_sweep
from kickcool.corrections import _decayed_coupling, _fidelity_profile

from kick_reference import generator_matrix

G = 2 * math.pi * 1e7
KAPPA = math.pi * 1e3

thetas = st.floats(
    0.0, 2 * math.pi, exclude_min=True, exclude_max=True, allow_subnormal=False
)


@st.composite
def protocols(draw, max_n_th=10.0):
    """n_th in 1e-2..max_n_th (n_max <= 315 at 10, 4118 at 1e2), r_a/kappa
    in 1e-1..1e3, p_e below the normalizability bound (n_th+1)/(2 n_th+1)."""
    n_th = 10.0 ** draw(st.floats(-2.0, math.log10(max_n_th)))
    ra_over_kappa = 10.0 ** draw(st.floats(-1.0, 3.0))
    bound = (n_th + 1.0) / (2.0 * n_th + 1.0)
    p_e = bound * draw(st.floats(0.0, 1.0, exclude_max=True))
    return ProtocolParams(
        g=G,
        tau=draw(thetas) / G,
        r_a=ra_over_kappa * KAPPA,
        kappa=KAPPA,
        n_th=n_th,
        p_e=p_e,
    )


def hot_bath(theta, p_e):
    """n_th = 1e2, the top of the route-agreement range, at r_a/kappa 1e3."""
    return ProtocolParams(
        g=G, tau=theta / G, r_a=1e3 * KAPPA, kappa=KAPPA, n_th=1e2, p_e=p_e
    )


# few generated draws land near 1e2, so both ends of p_e are pinned there
@example(hot_bath(1.2, 0.0))
@example(hot_bath(2.0, 0.5024))  # just under the bound 101/201: peaks at level 1
@given(protocols(max_n_th=1e2))
def test_steady_state_routes_agree(params):
    n_max = default_n_max(params.n_th)
    kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
    try:
        analytic = steady_state_analytic(params, kick, n_max)
    except NonNormalizableError:
        assume(False)
    gen = build_generator(params, kick, n_max)
    routes = [
        result.populations.populations
        for result in (analytic, steady_state_numeric(gen), steady_state_longtime(gen))
    ]
    worst = max(np.abs(a - b).max() for i, a in enumerate(routes) for b in routes[i + 1:])
    assert worst <= 1e-8


# theta = pi/2 closes the (3, 4) swap: a 4-level component of 5001 levels
@example((4, 5000))
@settings(derandomize=True, max_examples=25, deadline=2000)
@given(
    st.integers(2, 900).flatmap(
        lambda closing: st.tuples(st.just(closing), st.integers(closing, 5000))
    )
)
def test_cut_chain_is_solved_on_its_ground_component(sizes):
    # theta = pi/sqrt(l) closes the (l-1, l) swap; without damping, heating or
    # an excited qubit that swap is a cut, and every kick below it cools
    closing, n_max = sizes
    theta = math.pi / math.sqrt(closing)
    params = ProtocolParams(g=G, tau=theta / G, r_a=1e6, kappa=0.0, n_th=0.0)
    gen = build_generator(params, build_kick_map(params.g, params.tau, 0.0, n_max), n_max)
    with pytest.warns(UserWarning, match=f"above level {closing - 1};"):
        populations = steady_state_numeric(gen).populations.populations
    # the dense SVD of up to 600 levels leaves up to 2.7e-12 beside level 0
    assert populations[0] == pytest.approx(1.0, abs=1e-11)
    assert not populations[closing:].any()
    # ten dense copies of the component and eight vectors of the whole chain;
    # one dense copy of the chain is 8 (n_max + 1)^2 bytes, 200 MB at 5000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        tracemalloc.start()
        try:
            steady_state_numeric(gen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 80 * closing**2 + 64 * (n_max + 1) + 2**16


@given(
    st.integers(2, 20).flatmap(
        lambda n_max: st.lists(st.floats(0.0, 1.0), min_size=n_max - 1, max_size=n_max - 1)
    ),
    thetas,
    st.floats(0.0, 1.0),
)
def test_kick_conserves_probability_and_matches_oracle(body, theta, p_e):
    # the top two levels stay empty, clear of the oracle's truncated block
    assume(sum(body) > 0.0)
    populations = np.zeros(len(body) + 2)
    populations[: len(body)] = np.array(body) / sum(body)
    dist = PhononDistribution(populations)
    kicked = apply_kick(dist, build_kick_map(theta, 1.0, p_e, dist.n_max))
    assert abs(kicked.populations.sum() - populations.sum()) <= 1e-12
    oracle = kick_oracle(dist, g=theta, tau=1.0, p_e=p_e)
    assert np.abs(kicked.populations - oracle.populations).max() <= 1e-12


@given(
    st.integers(1, 60).flatmap(
        lambda n_max: st.lists(st.floats(0.0, 1.0), min_size=n_max + 1, max_size=n_max + 1)
    ),
    thetas,
)
def test_ground_state_kicks_never_heat(weights, theta):
    assume(sum(weights) > 0.0)
    dist = PhononDistribution(np.array(weights) / sum(weights), check_tail=False)
    before = mean_phonon(dist)
    after = mean_phonon(apply_kick(dist, build_kick_map(theta, 1.0, 0.0, dist.n_max)))
    assert after - before <= 1e-12 * (1.0 + before)


@given(protocols(max_n_th=1e2), st.integers(1, 60), st.floats(-3.0, 1.0))
def test_damping_propagator_is_column_stochastic(params, n_max, log_kappa_dt):
    dt = 10.0**log_kappa_dt / params.kappa
    prop = damping_propagator(params, n_max, dt) @ np.eye(n_max + 1)
    assert prop.min() >= -1e-12
    assert np.abs(prop.sum(axis=0) - 1.0).max() <= 1e-12


@given(
    protocols(),
    st.integers(1, 400),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e3),
)
def test_generator_is_a_markov_generator(params, n_max, p_e, n_th):
    # p_e and n_th beyond the normalizability bound still give a valid generator
    point = replace(params, n_th=n_th, p_e=p_e)
    dense = generator_matrix(
        build_generator(point, build_kick_map(point.g, point.tau, p_e, n_max), n_max)
    )
    scale = np.abs(np.diag(dense)).max()
    assert np.abs(dense.sum(axis=0)).max() <= 1e-14 * scale
    off_diagonal = dense - np.diag(np.diag(dense))
    assert off_diagonal.min() >= 0.0


# gamma0 up to 1e7 reaches past the first-order range, which warns
@pytest.mark.filterwarnings("ignore::kickcool.ValidityWarning")
@given(
    thetas,
    st.integers(2, 5000).flatmap(lambda top: st.tuples(st.integers(1, top - 1), st.just(top))),
    st.floats(0.0, 1e7),
)
def test_sliced_tabulation_equals_fresh_tabulation_bitwise(theta, sizes, gamma0):
    # the sweep tabulates once at the largest n_max and slices per point
    n_max, top = sizes
    params = ProtocolParams(g=G, tau=theta / G, r_a=0.0, kappa=KAPPA, n_th=0.0)
    table = build_kick_map(params.g, params.tau, 0.0, top)
    fresh = build_kick_map(params.g, params.tau, 0.0, n_max)
    assert table.ce2[: n_max + 1].tobytes() == fresh.ce2.tobytes()
    assert table.cg2[: n_max + 1].tobytes() == fresh.cg2.tobytes()
    levels = np.arange(1, top + 1, dtype=float)
    profile = _fidelity_profile(gamma0, params.g, params.tau, levels)
    fresh_levels = np.arange(1, n_max + 1, dtype=float)
    fresh_profile = _fidelity_profile(gamma0, params.g, params.tau, fresh_levels)
    assert profile[:n_max].tobytes() == fresh_profile.tobytes()
    coupling = _decayed_coupling(params, gamma0, table)
    assert coupling[:n_max].tobytes() == _decayed_coupling(params, gamma0, fresh).tobytes()


@st.composite
def sweeps(draw):
    """A small sweep grid: 1-4 n_th in 1e-2..10, r_a/kappa in 0..1e3, p
    below the bound at the hottest n_th, with or without the fidelity
    correction.  Every n_th below about 1.7 gets the 60-level floor, so
    half the draws come from 2..10, where the truncation grows from 90 to
    315 levels."""
    exponents = st.one_of(st.floats(-2.0, 1.0), st.floats(0.3, 1.0))
    n_th_grid = tuple(10.0**x for x in draw(st.lists(exponents, min_size=1, max_size=4)))
    bound = (max(n_th_grid) + 1.0) / (2.0 * max(n_th_grid) + 1.0)
    fractions = st.floats(0.0, 1.0, exclude_max=True)
    return SweepSpec(
        n_th_grid=n_th_grid,
        ra_over_kappa=tuple(draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=2))),
        p_values=tuple(bound * f for f in draw(st.lists(fractions, min_size=1, max_size=3))),
        with_fidelity=draw(st.booleans()),
    )


# p_e = 0.9 at n_th = 0.1 has no steady state at r_a/kappa 1e3: both fail
@example(math.pi / 2, SweepSpec((0.1, 5.0), (1e2, 1e3), (0.0, 0.9)), 0.0)
@given(thetas, sweeps(), st.floats(0.0, 1e-3))
def test_sweep_rows_equal_per_point_library_calls_bitwise(theta, spec, alpha_g):
    params = ProtocolParams(g=G, tau=theta / G, r_a=KAPPA, kappa=KAPPA, n_th=1.0)
    env = QubitEnvironment(alpha_g=alpha_g, temperature=0.01, e_j=1e-23, omega0=2e8 * math.pi)
    config = RunConfig(mode="sweep", output="", protocol=params, env=env, sweep=spec)
    expected = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n_th in spec.n_th_grid:
            n_max = default_n_max(n_th)
            for ra_over_kappa in spec.ra_over_kappa:
                for p_e in spec.p_values:
                    point = replace(params, n_th=n_th, r_a=ra_over_kappa * KAPPA, p_e=p_e)
                    try:
                        if spec.with_fidelity:
                            result = corrected_steady_state(point, env, n_max)
                        else:
                            kick = build_kick_map(point.g, point.tau, p_e, n_max)
                            result = steady_state_analytic(point, kick, n_max)
                    except NonNormalizableError:
                        # some point has no steady state: the sweep must fail too
                        with pytest.raises(NonNormalizableError):
                            _run_sweep(config)
                        return
                    expected.append(
                        (n_th, ra_over_kappa, p_e, result.mean_n_s, result.delta_n, result.p0_s)
                    )
        rows = _run_sweep(config)[2]
    expected.sort(key=lambda row: row[:3])  # stable, as the sweep sorts its rows
    assert rows == expected


@given(
    protocols(),
    st.integers(1, 60).flatmap(
        lambda n_max: st.lists(st.floats(0.0, 1.0), min_size=n_max + 1, max_size=n_max + 1)
    ),
)
def test_one_period_conserves_probability(params, weights):
    # free damping for 1/r_a, then a kick; a renormalising kick warns, and
    # the warning fails the test
    assume(sum(weights) > 0.0)
    populations = np.array(weights) / sum(weights)
    n_max = populations.size - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the excited-qubit branch may legitimately reach the top level
        warnings.simplefilter("ignore", TruncationOverflowWarning)
        damped = damping_propagator(params, n_max, 1.0 / params.r_a) @ populations
        assert damped.min() >= -1e-12
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        kicked = apply_kick(PhononDistribution(damped, check_tail=False), kick).populations
    assert abs(kicked.sum() - 1.0) <= 1e-12
    assert abs(damped.sum() - 1.0) <= 1e-12
    assert kicked.min() >= -1e-12
