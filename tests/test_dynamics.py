import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from kickcool import (
    ConvergenceError,
    DegenerateKernelError,
    EvolutionTrace,
    GeneratorMatrix,
    NonNormalizableError,
    ProtocolParams,
    TruncationOverflowWarning,
    build_generator,
    build_kick_map,
    damping_propagator,
    default_n_max,
    dynamics,
    evolve,
    evolve_stroboscopic,
    kick_fluctuation,
    mean_phonon,
    number_state,
    steady_state_analytic,
    steady_state_longtime,
    steady_state_numeric,
    thermal_distribution,
)

from kick_reference import damping_matrix, generator_matrix, kick_matrix

G_REF = 2 * np.pi * 1e7
KAPPA_REF = np.pi * 1e3


def make_params(n_th, ra_over_kappa, theta, p_e=0.0, kappa=KAPPA_REF):
    return ProtocolParams(
        g=G_REF,
        tau=theta / G_REF,
        r_a=ra_over_kappa * kappa,
        kappa=kappa,
        n_th=n_th,
        p_e=p_e,
    )


def demo_setup(n_max=60):
    """Slow transient-demo point: n_th = 1.7, r_a/kappa = 133, theta = pi/8."""
    params = make_params(1.7, 133.0, np.pi / 8.0)
    kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
    return params, kick, build_generator(params, kick, n_max)


def count_lu(monkeypatch):
    """Count the factorisations of ``dynamics._tridiagonal_lu`` and their solves."""
    counts = Counter()
    lu = dynamics._tridiagonal_lu

    def counting(*bands):
        counts["factorisations"] += 1
        solve = lu(*bands)

        def counted_solve(rhs):
            counts["solves"] += 1
            return solve(rhs)

        return counted_solve

    monkeypatch.setattr(dynamics, "_tridiagonal_lu", counting)
    return counts


class TestGenerator:
    def test_columns_sum_to_zero(self):
        _, _, gen = demo_setup()
        dense = generator_matrix(gen)
        scale = np.abs(dense).max()
        assert np.abs(dense.sum(axis=0)).max() < 1e-12 * scale

    def test_offdiagonal_rates_nonnegative(self):
        _, _, gen = demo_setup()
        dense = generator_matrix(gen)
        off = dense - np.diag(np.diag(dense))
        assert off.min() >= 0.0

    def test_matches_kick_plus_damping_assembly(self):
        params, kick, gen = demo_setup(40)
        size = 41
        levels = np.arange(1, size, dtype=float)
        up = params.kappa * params.n_th * levels
        down = params.kappa * (params.n_th + 1.0) * levels
        damping = np.zeros((size, size))
        idx = np.arange(size - 1)
        damping[idx + 1, idx] = up
        damping[idx, idx + 1] = down
        damping[np.arange(size), np.arange(size)] = -np.concatenate(
            (up, [0.0])
        ) - np.concatenate(([0.0], down))
        direct = params.r_a * (kick_matrix(kick) - np.eye(size)) + damping
        dense = generator_matrix(gen)
        scale = np.abs(dense).max()
        np.testing.assert_allclose(dense, direct, atol=1e-12 * scale)

    # n_max 30 runs the dense SVD, 700 the pinned tridiagonal LU
    @pytest.mark.parametrize("n_max", [30, 700])
    def test_pure_decay_relaxes_to_vacuum(self, n_max):
        params = ProtocolParams(
            g=G_REF, tau=1e-8, r_a=0.0, kappa=KAPPA_REF, n_th=0.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, n_max)
        gen = build_generator(params, kick, n_max)
        result = steady_state_numeric(gen)
        assert result.populations.populations[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_max", [30, 700])
    def test_undamped_full_swap_empties_into_vacuum(self, n_max):
        params = ProtocolParams(
            g=G_REF, tau=(np.pi / 2) / G_REF, r_a=1e6, kappa=0.0, n_th=0.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, n_max)
        gen = build_generator(params, kick, n_max)
        with pytest.warns(UserWarning):  # chain disconnects at the swap nodes
            result = steady_state_numeric(gen)
        assert result.populations.populations[0] == pytest.approx(1.0, abs=1e-12)

    def test_size_mismatch(self):
        params, kick, _ = demo_setup(20)
        with pytest.raises(ValueError):
            build_generator(params, kick, 30)

    def test_apply_matches_dense_product(self):
        _, _, gen = demo_setup()
        x = np.random.default_rng(5).random(gen.n_max + 1)
        dense = generator_matrix(gen)
        scale = np.abs(dense).max() * np.abs(x).max()
        np.testing.assert_allclose(gen.apply(x), dense @ x, rtol=0, atol=1e-14 * scale)

    def test_bands_are_read_only(self):
        _, _, gen = demo_setup()
        with pytest.raises(ValueError):
            gen.up[0] = 1.0

    @pytest.mark.parametrize(
        "up, down",
        [
            (np.ones(4), np.ones(5)),
            (np.ones((2, 2)), np.ones((2, 2))),
            (np.array([1.0, -1e-3, 1.0]), np.ones(3)),
            (np.ones(3), np.array([1.0, np.nan, 1.0])),
            (np.ones(3), np.array([1.0, np.inf, 1.0])),
        ],
    )
    def test_malformed_bands_rejected(self, up, down):
        params, kick, _ = demo_setup(3)
        with pytest.raises(ValueError):
            GeneratorMatrix(up=up, down=down, params=params, kick=kick)

    def test_banded_routes_stay_small_at_n_th_100(self):
        # the dense generator alone would be 8*(n_max+1)^2 = 136 MB here
        params = make_params(100.0, 100.0, np.pi / 2.0)
        n_max = default_n_max(params.n_th)
        assert n_max == 4118
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        t_end = 2.0 / params.r_a
        tracemalloc.start()
        try:
            gen = build_generator(params, kick, n_max)
            steady_state_longtime(gen)
            evolve(
                thermal_distribution(params.n_th, n_max),
                gen,
                t_end,
                sample_times=np.linspace(0.0, t_end, 3),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestEvolve:
    def test_steady_state_is_fixed_point(self):
        params, kick, gen = demo_setup()
        steady = steady_state_analytic(params, kick, 60)
        t_end = 20.0 / params.r_a
        trace = evolve(steady.populations, gen, t_end)
        assert np.abs(trace.mean_n - steady.mean_n_s).max() < 1e-8

    def test_thermal_relaxation_closed_form(self):
        # pure damping lifts the vacuum as n_th (1 - exp(-kappa t))
        params = ProtocolParams(
            g=G_REF, tau=1e-8, r_a=0.0, kappa=KAPPA_REF, n_th=1.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, 60)
        gen = build_generator(params, kick, 60)
        t_end = 5.0 / params.kappa
        times = np.linspace(0.0, t_end, 101)
        trace = evolve(number_state(0, 60), gen, t_end, sample_times=times)
        exact = params.n_th * (1.0 - np.exp(-params.kappa * times))
        rel = np.abs(trace.mean_n[1:] - exact[1:]) / exact[1:]
        assert rel.max() < 1e-6

    def test_transient_reaches_steady_by_sixty_periods(self):
        params, kick, gen = demo_setup()
        steady = steady_state_analytic(params, kick, 60)
        t_end = 90.0 / params.r_a
        times = np.linspace(0.0, t_end, 361)
        trace = evolve(thermal_distribution(1.7, 60), gen, t_end, sample_times=times)
        at_sixty = np.searchsorted(times * params.r_a, 60.0)
        assert abs(trace.mean_n[at_sixty] - steady.mean_n_s) < 0.01 * steady.mean_n_s

    def test_sample_validation(self):
        params, kick, gen = demo_setup()
        with pytest.raises(ValueError):
            evolve(thermal_distribution(1.7, 60), gen, -1.0)
        with pytest.raises(ValueError):
            evolve(
                thermal_distribution(1.7, 60),
                gen,
                1.0,
                sample_times=np.array([0.0, 2.0]),
            )

    def test_snapshots_kept_on_request(self):
        params, kick, gen = demo_setup()
        t_end = 5.0 / params.r_a
        trace = evolve(
            thermal_distribution(1.7, 60),
            gen,
            t_end,
            sample_times=np.linspace(0, t_end, 6),
            keep_snapshots=True,
        )
        assert len(trace.snapshots) == 6
        assert trace.snapshots[0].populations.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"times": [0.0, 1.0], "mean_n": [1.0], "p0": [0.5, 0.5]},
            {"times": [0.0, 1.0], "mean_n": [1.0, 1.0], "p0": [0.5, 0.5, 0.5]},
            {"times": [0.0, 1.0], "mean_n": [1.0, 1.0], "p0": [0.5, 0.5],
             "snapshots": [number_state(0, 10)]},
        ],
    )
    def test_trace_rejects_mismatched_lengths(self, fields):
        with pytest.raises(ValueError):
            EvolutionTrace(**fields)

    @pytest.mark.parametrize(
        "n_th, ra_over_kappa, theta",
        [(1.7, 133.0, np.pi / 8.0), (10.0, 147.0, 1.0)],
        ids=["fig2-n_max-60", "n_max-315"],
    )
    def test_matches_stepped_expm(self, n_th, ra_over_kappa, theta):
        # reference: one exp(G dt) applied sample to sample, which agrees with
        # exp(G t) at every sample time to a few 1e-13
        params = make_params(n_th, ra_over_kappa, theta)
        n_max = default_n_max(n_th)
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        gen = build_generator(params, kick, n_max)
        initial = thermal_distribution(n_th, n_max)
        t_end = 120.0 / params.r_a
        times = np.linspace(0.0, t_end, 481)
        trace = evolve(initial, gen, t_end, sample_times=times)

        step = expm(generator_matrix(gen) * (times[1] - times[0]))
        levels = np.arange(n_max + 1, dtype=float)
        state = initial.populations.copy()
        ref_mean, ref_p0 = [levels @ state], [state[0]]
        for _ in times[1:]:
            state = step @ state
            ref_mean.append(levels @ state)
            ref_p0.append(state[0])
        assert np.abs(trace.mean_n - ref_mean).max() < 1e-8
        assert np.abs(trace.p0 - ref_p0).max() < 1e-8

    @pytest.mark.parametrize(
        "n_th, ra_over_kappa, theta",
        [
            (1.7, 200.0, 1.0),
            (10.0, 190.0, 1.0),
            (10.0, 12.0, 1.0),
            (30.0, 200.0, 1.0),
            (5.0, 1000.0, np.pi / 2.0),
        ],
        ids=["evolve-60", "evolve-315", "evolve-315-stiff", "evolve-855", "trapping-node"],
    )
    def test_every_population_matches_expm(self, n_th, ra_over_kappa, theta):
        # the benchmark's evolve grid, 120 periods in 481 samples, checked at
        # every 60th sample against exp(G t) p0, computed as one dense
        # expm(G t_60) applied k times: within 2.5e-13 of expm(G t) itself on
        # these points, at one expm per case.  Longer windows fail the
        # reference, not the stepper: at the trapping node and kappa t = 8,
        # expm(G t) and its stepped form differ by 1.5e-12
        params = make_params(n_th, ra_over_kappa, theta)
        n_max = default_n_max(n_th)
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        gen = build_generator(params, kick, n_max)
        initial = thermal_distribution(n_th, n_max)
        t_end = 120.0 / params.r_a
        times = np.linspace(0.0, t_end, 481)
        trace = evolve(initial, gen, t_end, sample_times=times, keep_snapshots=True)
        step = expm(generator_matrix(gen) * times[60])
        reference = initial.populations
        for snapshot in trace.snapshots[::60]:
            assert np.abs(snapshot.populations - reference).max() <= 1e-12
            reference = step @ reference


    def test_linspace_grid_costs_one_factorisation(self, monkeypatch):
        params, _, gen = demo_setup()
        counts = count_lu(monkeypatch)
        t_end = 120.0 / params.r_a
        times = np.linspace(0.0, t_end, 481)
        assert np.unique(np.diff(times)).size > 1  # the gaps differ in their last bits
        evolve(thermal_distribution(1.7, 60), gen, t_end, sample_times=times)
        assert counts["factorisations"] == 1


class TestIntegratorNoise:
    """Samples of evolve and strobe snapshots: undershoot down to -1e-12 is noise."""

    @staticmethod
    def block():
        rng = np.random.default_rng(5)
        block = rng.random((4, 12))
        block /= block.sum(axis=1, keepdims=True)
        return block

    def test_undershoot_row_is_clamped_and_renormalised(self):
        block = self.block()
        # the row still sums to 1; clamping the dip adds 5e-13 of mass
        block[2, 6] += block[2, 5] + 5e-13
        block[2, 5] = -5e-13
        expected = block.copy()
        row = np.maximum(block[2], 0.0)
        expected[2] = row / row.sum()
        out = dynamics._checked_samples(block)
        assert out is block
        assert out.tobytes() == expected.tobytes()

    def test_undershoot_beyond_tolerance_raises(self):
        block = self.block()
        block[1, 6] += block[1, 5] + 2e-12
        block[1, 5] = -2e-12
        with pytest.raises(ConvergenceError, match="went negative"):
            dynamics._checked_samples(block)


class TestStroboscopic:
    def test_single_swap_then_inert(self):
        params = ProtocolParams(
            g=G_REF, tau=(np.pi / 2) / G_REF, r_a=1e6, kappa=0.0, n_th=0.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, 10)
        trace = evolve_stroboscopic(number_state(1, 10), params, kick, 4)
        post = trace.mean_n[2::2]
        np.testing.assert_allclose(post, 0.0, atol=1e-12)

    def test_snapshots_follow_every_sample(self):
        params, kick, _ = demo_setup()
        initial = thermal_distribution(1.7, 60)
        trace = evolve_stroboscopic(initial, params, kick, 5, keep_snapshots=True)
        assert trace.times.size == 11
        assert len(trace.snapshots) == 11
        n = np.arange(61)
        means = [n @ snap.populations for snap in trace.snapshots]
        np.testing.assert_allclose(means, trace.mean_n, rtol=1e-12)

    def test_zero_kicks_returns_initial(self):
        params, kick, _ = demo_setup()
        initial = thermal_distribution(1.7, 60)
        trace = evolve_stroboscopic(initial, params, kick, 0)
        assert trace.times.size == 1
        assert trace.mean_n[0] == pytest.approx(mean_phonon(initial))

    def test_times_strictly_increasing(self):
        params, kick, _ = demo_setup()
        trace = evolve_stroboscopic(thermal_distribution(1.7, 60), params, kick, 20)
        assert np.all(np.diff(trace.times) > 0)

    def test_per_kick_drop_matches_steady_fluctuation(self):
        params, kick, _ = demo_setup()
        steady = steady_state_analytic(params, kick, 60)
        trace = evolve_stroboscopic(thermal_distribution(1.7, 60), params, kick, 300)
        pre, post = trace.mean_n[1::2], trace.mean_n[2::2]
        drop = (pre[-40:] - post[-40:]).mean()
        assert drop == pytest.approx(steady.delta_n, rel=0.05)

    def test_cycle_average_matches_coarse_grained_mean(self):
        params, kick, _ = demo_setup()
        steady = steady_state_analytic(params, kick, 60)
        trace = evolve_stroboscopic(thermal_distribution(1.7, 60), params, kick, 300)
        pre, post = trace.mean_n[1::2], trace.mean_n[2::2]
        averaged = 0.5 * (pre[-40:] + post[-40:]).mean()
        allowance = steady.delta_n / 2.0 + 0.02 * steady.mean_n_s
        assert abs(averaged - steady.mean_n_s) < allowance

    def test_strobe_855_holds_no_square_array(self):
        # the benchmark's strobe-855 cell: 856 levels, 5.9 MB per dense copy
        params = make_params(30.0, 200.0, 1.0)
        n_max = default_n_max(params.n_th)
        assert n_max == 855
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        initial = thermal_distribution(params.n_th, n_max)
        tracemalloc.start()
        try:
            evolve_stroboscopic(initial, params, kick, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (n_max + 1) ** 2

    def test_hot_bath_runs_400_kicks_in_seconds(self):
        # n_th 100, 4119 levels: a dense propagator holds 136 MB per copy
        params = make_params(100.0, 133.0, np.pi / 8.0)
        n_max = default_n_max(params.n_th)
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        initial = thermal_distribution(params.n_th, n_max)
        start = time.perf_counter()
        trace = evolve_stroboscopic(initial, params, kick, 400)
        assert time.perf_counter() - start < 3.0
        assert trace.mean_n[-1] < trace.mean_n[0]

    def test_damping_propagator_is_stochastic(self):
        params, _, _ = demo_setup()
        prop = damping_propagator(params, 40, 1.0 / params.r_a) @ np.eye(41)
        np.testing.assert_allclose(prop.sum(axis=0), 1.0, atol=1e-12)
        assert prop.min() >= -1e-15


class TestDampingStepper:
    """One damping period on the bands against the dense expm reference.

    Cold baths make the generator far from normal: without its sub-steps
    the stepper misses by 1.9e-4, with entries of -1.2e-5, at n_th 0, n_max
    60, kappa*dt 1; without its mass step the column sums drift by up to
    2.2e-11 (n_th 100, n_max 60, kappa*dt 10).
    """

    @staticmethod
    def check(n_th, n_max, kappa_dt, stride=1):
        # a stride samples every stride-th column (and the last) of the
        # larger propagators, whose sub-steps on all columns take seconds
        params = make_params(n_th, 133.0, np.pi / 8.0)
        dt = kappa_dt / params.kappa
        columns = np.unique(np.r_[0 : n_max + 1 : stride, n_max])
        got = damping_propagator(params, n_max, dt) @ np.eye(n_max + 1)[:, columns]
        ref = damping_matrix(params, n_max, dt)[:, columns]
        assert np.abs(got - ref).max() <= 1e-12
        assert got.min() >= -1e-13
        assert np.abs(got.sum(axis=0) - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("n_th", [0.0, 1e-3, 0.5, 1.7, 10.0, 100.0])
    def test_matches_expm_up_to_60_levels(self, n_th):
        for n_max in (2, 18, 60):
            for kappa_dt in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
                self.check(n_th, n_max, kappa_dt)

    @pytest.mark.parametrize("n_th", [0.0, 1e-3, 0.5, 1.7, 10.0, 100.0])
    def test_matches_expm_at_315_levels(self, n_th):
        for kappa_dt in (1e-3, 1e-2, 1e-1, 1.0):
            self.check(n_th, 315, kappa_dt, stride=8)

    @pytest.mark.parametrize("ra_over_kappa", [150.0, 300.0])
    def test_matches_expm_on_strobe_855_cells(self, ra_over_kappa):
        # the benchmark's strobe-855 cell: n_th 30, r_a/kappa in 150..300
        self.check(30.0, 855, 1.0 / ra_over_kappa, stride=8)


class TestSteadyStateAnalytic:
    def test_first_level_ratio_full_swap(self):
        params = make_params(1.0, 100.0, np.pi / 2.0)
        kick = build_kick_map(params.g, params.tau, 0.0, 60)
        result = steady_state_analytic(params, kick, 60)
        p = result.populations.populations
        assert p[1] / p[0] == pytest.approx(1.0 / 102.0, rel=1e-9)

    def test_no_kicks_gives_thermal(self):
        params = ProtocolParams(
            g=G_REF, tau=1e-8, r_a=0.0, kappa=KAPPA_REF, n_th=2.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, 120)
        result = steady_state_analytic(params, kick, 120)
        expected = thermal_distribution(2.0, 120)
        np.testing.assert_allclose(
            result.populations.populations, expected.populations, atol=1e-14
        )

    def test_strong_cooling_limit(self):
        # n_th << r_a/kappa at full swap: mean approaches n_th*kappa/r_a
        params = make_params(0.5, 1000.0, np.pi / 2.0)
        kick = build_kick_map(params.g, params.tau, 0.0, 60)
        result = steady_state_analytic(params, kick, 60)
        assert result.mean_n_s == pytest.approx(0.5 / 1000.0, rel=0.10)

    def test_excitation_bound_enforced(self):
        params = make_params(1.0, 100.0, np.pi / 2.0, p_e=0.9)
        kick = build_kick_map(params.g, params.tau, 0.9, 60)
        with pytest.raises(NonNormalizableError):
            steady_state_analytic(params, kick, 60)

    def test_hot_limit_is_geometric(self):
        params = make_params(100.0, 1.0, np.pi / 2.0)
        n_max = default_n_max(100.0)
        kick = build_kick_map(params.g, params.tau, 0.0, n_max)
        result = steady_state_analytic(params, kick, n_max)
        p = result.populations.populations
        ratios = p[1:21] / p[0:20]
        np.testing.assert_allclose(ratios, 100.0 / 101.0, rtol=0.01)

    def test_needs_damping(self):
        params = ProtocolParams(g=G_REF, tau=1e-8, r_a=1e6, kappa=0.0, n_th=1.0)
        kick = build_kick_map(params.g, params.tau, 0.0, 30)
        with pytest.raises(ValueError):
            steady_state_analytic(params, kick, 30)

    @pytest.mark.parametrize("kick_n_max", [40, 100])
    def test_kick_size_must_match_truncation(self, kick_n_max):
        params = make_params(1.0, 100.0, np.pi / 2.0)
        kick = build_kick_map(params.g, params.tau, 0.0, kick_n_max)
        with pytest.raises(ValueError, match=f"kick sized for n_max={kick_n_max}"):
            steady_state_analytic(params, kick, 60)


class TestKickMatchesProtocol:
    """p_e and the pulse area have one source: the protocol."""

    # a kick built for another p_e, then one built for another pulse area
    @pytest.mark.parametrize("kick_p_e, kick_theta", [(0.0, 1.0), (0.2, 0.9)])
    @pytest.mark.parametrize("route", ["generator", "analytic", "stroboscopic"])
    def test_foreign_kick_rejected(self, route, kick_p_e, kick_theta):
        params = make_params(1.0, 100.0, 1.0, p_e=0.2)
        kick = build_kick_map(params.g, kick_theta / params.g, kick_p_e, 60)
        calls = {
            "generator": lambda: build_generator(params, kick, 60),
            "analytic": lambda: steady_state_analytic(params, kick, 60),
            "stroboscopic": lambda: evolve_stroboscopic(
                thermal_distribution(1.0, 60), params, kick, 1
            ),
        }
        with pytest.raises(ValueError, match="kick built for"):
            calls[route]()


class TestSteadyStateResult:
    @staticmethod
    def result():
        params = make_params(1.0, 100.0, np.pi / 2.0)
        return steady_state_analytic(params, build_kick_map(params.g, params.tau, 0.0, 60), 60)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown steady-state method"):
            replace(self.result(), method="guess")

    @pytest.mark.parametrize("name", ["mean_n_s", "delta_n", "p0_s"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_diagnostic_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} is not finite"):
            replace(self.result(), **{name: value})

    def test_p0_must_be_the_ground_population(self):
        result = self.result()
        with pytest.raises(ValueError, match="ground-level population"):
            replace(result, p0_s=np.nextafter(result.p0_s, 1.0))


class TestSteadyStateNumeric:
    def test_no_kicks_gives_thermal(self):
        params = ProtocolParams(
            g=G_REF, tau=1e-8, r_a=0.0, kappa=KAPPA_REF, n_th=2.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, 120)
        gen = build_generator(params, kick, 120)
        result = steady_state_numeric(gen)
        expected = thermal_distribution(2.0, 120)
        np.testing.assert_allclose(
            result.populations.populations, expected.populations, atol=1e-12
        )

    def test_matches_analytic_at_demo_point(self):
        params, kick, gen = demo_setup()
        analytic = steady_state_analytic(params, kick, 60)
        numeric = steady_state_numeric(gen)
        np.testing.assert_allclose(
            numeric.populations.populations,
            analytic.populations.populations,
            atol=1e-9,
        )


class TestPinnedNullSpace:
    """The null-space route above 600 levels: one pinned tridiagonal LU."""

    def test_cut_above_six_hundred_levels(self):
        # theta = pi/26 closes the (675, 676) swap: a 676-level ground block
        params = ProtocolParams(
            g=G_REF, tau=(np.pi / 26) / G_REF, r_a=1e6, kappa=0.0, n_th=0.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, 700)
        with pytest.warns(UserWarning, match="above level 675"):
            result = steady_state_numeric(build_generator(params, kick, 700))
        assert result.populations.populations[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_max", [30, 700])
    def test_upward_draining_chain_ends_at_the_top_level(self, n_max):
        # no damping and an excited qubit: every kick moves population up, so
        # level 0 holds no mass and cannot carry the pin
        params = ProtocolParams(
            g=G_REF, tau=1.0 / G_REF, r_a=1e6, kappa=0.0, n_th=0.0, p_e=1.0
        )
        kick = build_kick_map(params.g, params.tau, 1.0, n_max)
        with pytest.warns(TruncationOverflowWarning):
            result = steady_state_numeric(build_generator(params, kick, n_max))
        assert result.populations.populations[-1] == pytest.approx(1.0, abs=1e-12)

    def test_repins_at_the_most_populated_level(self, monkeypatch):
        # p_e between 1/2 and (n_th+1)/(2 n_th+1): the kicks heat the lowest
        # levels, so the distribution peaks above level 0
        params = make_params(50.0, 1000.0, 1.2, p_e=0.504)
        n_max = default_n_max(params.n_th)
        assert n_max > 600
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        analytic = steady_state_analytic(params, kick, n_max).populations.populations
        assert analytic.argmax() != 0
        counts = count_lu(monkeypatch)
        numeric = steady_state_numeric(build_generator(params, kick, n_max))
        assert counts["factorisations"] == 2
        assert np.abs(numeric.populations.populations - analytic).max() < 1e-13

    def test_singular_pinned_system_is_degenerate(self):
        # level 300 cannot climb and level 500 cannot descend: 0..300 and
        # 501..700 both keep their mass, so the kernel is two-dimensional;
        # with unit rates the LU meets an exactly zero pivot
        params, kick, _ = demo_setup(700)
        up, down = np.ones(700), np.ones(700)
        up[300] = 0.0
        down[500] = 0.0
        gen = GeneratorMatrix(up=up, down=down, params=params, kick=kick)
        with pytest.raises(DegenerateKernelError):
            steady_state_numeric(gen)

    @pytest.mark.parametrize(
        "n_th, limit", [(100.0, 4e6), (1000.0, 100e6)], ids=["n_max-4118", "n_max-40568"]
    )
    def test_memory_stays_linear(self, n_th, limit):
        # one dense generator copy would be 136 MB at n_max 4118, 13.2 GB at 40568
        params = make_params(n_th, 100.0, 1.2)
        n_max = default_n_max(n_th)
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        gen = build_generator(params, kick, n_max)
        tracemalloc.start()
        try:
            result = steady_state_numeric(gen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit
        analytic = steady_state_analytic(params, kick, n_max)
        assert np.abs(
            result.populations.populations - analytic.populations.populations
        ).max() < 1e-12


class TestSteadyStateLongtime:
    @pytest.mark.parametrize("n_max", [60, 4118])
    def test_factorises_once_per_call(self, monkeypatch, n_max):
        # every implicit-Euler step solves the same system I - dt*G
        _, _, gen = demo_setup(n_max)
        counts = count_lu(monkeypatch)
        steady_state_longtime(gen)
        assert counts["factorisations"] == 1
        assert counts["solves"] > 1


class TestSolverAgreement:
    @pytest.mark.parametrize("n_th", [0.5, 5.0])
    @pytest.mark.parametrize("ra_over_kappa", [10.0, 200.0])
    @pytest.mark.parametrize("p_e", [0.0, 0.2])
    def test_three_routes_agree(self, n_th, ra_over_kappa, p_e):
        params = make_params(n_th, ra_over_kappa, 1.2, p_e=p_e)
        n_max = default_n_max(n_th)
        kick = build_kick_map(params.g, params.tau, p_e, n_max)
        gen = build_generator(params, kick, n_max)
        a = steady_state_analytic(params, kick, n_max).populations.populations
        n = steady_state_numeric(gen).populations.populations
        t = steady_state_longtime(gen).populations.populations
        assert np.abs(a - n).max() < 1e-8
        assert np.abs(a - t).max() < 1e-8
        assert np.abs(n - t).max() < 1e-8


class TestTrappingNodes:
    def test_full_swap_bottleneck_above_level_four(self):
        # at theta = pi/2 the (3,4) swap closes (sin^2(pi) = 0), so mass
        # above level 4 drains only through damping; convergence is then a
        # kappa-scale process even when r_a/kappa is large
        params = make_params(5.0, 1000.0, np.pi / 2.0)
        n_max = default_n_max(5.0)
        kick = build_kick_map(params.g, params.tau, 0.0, n_max)
        assert kick.ce2[3] < 1e-30
        gen = build_generator(params, kick, n_max)
        steady = steady_state_analytic(params, kick, n_max)
        early = evolve(
            thermal_distribution(5.0, n_max),
            gen,
            150.0 / params.r_a,
            sample_times=np.array([150.0 / params.r_a]),
            keep_snapshots=True,
        )
        stuck = early.snapshots[0].populations[4]
        assert stuck > 10.0 * steady.populations.populations[4]
        late = evolve(
            thermal_distribution(5.0, n_max),
            gen,
            8.0 / params.kappa,
            sample_times=np.array([8.0 / params.kappa]),
        )
        assert late.mean_n[-1] == pytest.approx(steady.mean_n_s, rel=1e-9)


class TestKickFluctuation:
    def test_vacuum_zero(self):
        kick = build_kick_map(1.0, 1.0, 0.0, 10)
        assert kick_fluctuation(number_state(0, 10), kick) == 0.0

    def test_full_swap_removes_one(self):
        kick = build_kick_map(1.0, np.pi / 2.0, 0.0, 10)
        assert kick_fluctuation(number_state(1, 10), kick) == pytest.approx(1.0)

    def test_steady_state_balance_identity(self):
        # stationarity of the mean: mean_n_s = n_th - (r_a/kappa) * delta_n
        params, kick, gen = demo_setup()
        numeric = steady_state_numeric(gen)
        reconstructed = params.n_th - params.ra_over_kappa * numeric.delta_n
        assert abs(reconstructed - numeric.mean_n_s) < 1e-6

    def test_always_cooling_in_steady_state(self):
        params, kick, gen = demo_setup()
        result = steady_state_numeric(gen)
        assert result.delta_n >= 0.0
        assert result.mean_n_s < params.n_th
