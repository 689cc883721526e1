import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kickcool import (
    ConvergenceError,
    build_kick_map,
    cli,
    corrected_steady_state,
    default_n_max,
    steady_state_analytic,
)
from kickcool.cli import (
    MAX_LEVELS,
    MAX_ROWS,
    MAX_STEPPED_LEVELS,
    PRESETS,
    ConfigError,
    RunConfig,
    SweepSpec,
    build_parser,
    config_from_args,
    main,
    run,
)

CONFIG_TEMPLATE = """
[protocol]
g_mhz = 62.83185307179586
pulse_area_rad = 0.39269908169872414
ra_mhz = 0.4178318229274424
kappa_mhz = 0.0031415926535897933
n_th = 1.7
p_e = 0.0

[output]
format = csv
"""

SWEEP_CONFIG = """
[protocol]
g_mhz = 62.83185307179586
pulse_area_rad = 1.5707963267948966
ra_mhz = 0.31415926535897933
kappa_mhz = 0.0031415926535897933
n_th = 1.0

[sweep]
n_th_min = 0.1
n_th_max = 10
n_th_count = 3
ra_over_kappa = 100, 1000
p_excited = 0
"""

DEVICE_CONFIG = """
[device]
e_j_uev = 82.7
c_x_af = 20
c_g_af = 20
c_j_af = 210
v_x_v = 0.25
r_ohm = 50
temperature_mk = 10
omega0_mhz = 628.3185307179587
q_factor = 2e5
g_mhz = 62.83185307179586
tau_ns = 25
ra_mhz = 3.0

[sweep]
n_th_min = 0.1
n_th_max = 10
n_th_count = 3
ra_over_kappa = 100, 1000
p_excited = 0
with_fidelity = true
"""


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEvolveMode:
    def test_config_file_run(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_TEMPLATE)
        out = tmp_path / "trace.csv"
        code = main(
            ["evolve", "--config", str(cfg), "--output", str(out),
             "--samples", "41", "--t-end-ra", "40", "--n-max", "60"]
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["t_ra", "mean_n", "p0"]
        assert len(rows) == 41
        assert float(rows[0][1]) == pytest.approx(1.7, rel=1e-6)
        assert float(rows[-1][0]) == pytest.approx(40.0)

    def test_preset_run_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = main(
                ["evolve", "--preset", "fig2", "--output", str(out),
                 "--samples", "61", "--t-end-ra", "30"]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "trace.json"
        code = main(
            ["evolve", "--preset", "fig2", "--output", str(out),
             "--format", "json", "--samples", "11", "--t-end-ra", "10"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"metadata", "data"}
        assert payload["metadata"]["n_th"] == 1.7
        assert len(payload["data"]["mean_n"]) == 11

    @pytest.mark.filterwarnings("ignore::kickcool.TruncationOverflowWarning")
    @pytest.mark.parametrize("fmt, bound", [("csv", 8e6), ("json", 14e6)])
    def test_peak_memory_per_row(self, tmp_path, fmt, bound):
        # 1e5 rows written straight from the trace's columns read 5.7 / 12.0 MB
        # here (JSON's lists hold a float object per entry); a list of row
        # tuples held about 200 bytes a row and read 19.9 MB in both formats
        argv = ["evolve", "--preset", "fig2", "--n-max", "1", "--t-end-ra", "1",
                "--format", fmt, "--output", str(tmp_path / f"e.{fmt}")]
        assert main(argv + ["--samples", "2"]) == 0  # imports and caches before tracing
        tracemalloc.start()
        try:
            assert main(argv + ["--samples", "100000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestSteadyMode:
    def test_two_solvers_in_columns(self, tmp_path):
        out = tmp_path / "steady.csv"
        code = main(["steady", "--preset", "fig2", "--output", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["n", "p_analytic", "p_numeric"]
        analytic = np.array([float(r[1]) for r in rows])
        numeric = np.array([float(r[2]) for r in rows])
        assert np.abs(analytic - numeric).max() < 1e-9
        assert analytic.sum() == pytest.approx(1.0, abs=1e-9)


class TestStrobeMode:
    def test_sawtooth_columns(self, tmp_path):
        out = tmp_path / "strobe.csv"
        code = main(
            ["strobe", "--preset", "fig2", "--output", str(out), "--kicks", "30"]
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["t_ra", "mean_n", "p0"]
        assert len(rows) == 61  # initial sample plus pre/post per kick
        times = [float(r[0]) for r in rows]
        assert times == sorted(times)


class TestSweepMode:
    def test_config_sweep(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["n_th", "ra_over_kappa", "p", "mean_n_s", "delta_n", "p0_s"]
        assert len(rows) == 6
        first = rows[0]
        assert float(first[0]) == pytest.approx(0.1)
        # strong-cooling regime: mean ~ n_th / (r_a/kappa)
        assert float(first[3]) == pytest.approx(0.1 / 100.0, rel=0.15)

    def test_empty_grid_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG.replace("n_th_count = 3", "n_th_count = 0"))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 2

    @pytest.mark.parametrize(
        "old, new",
        [
            ("p_excited = 0", "p_excited = 0, 1.5"),
            ("n_th_count = 3", "n_th_count = 2.7"),
            ("ra_over_kappa = 100, 1000", "ra_over_kappa = 100, -1"),
            ("n_th_max = 10", "n_th_max = nan"),
        ],
    )
    def test_bad_sweep_values_are_config_errors(self, tmp_path, capsys, old, new):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG.replace(old, new))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("with_fidelity", [False, True])
    @pytest.mark.parametrize("n_max_flag", [[], ["--n-max", "400"]])
    def test_rows_equal_per_point_library_calls_bitwise(
        self, tmp_path, with_fidelity, n_max_flag
    ):
        # three n_th with three different default truncations (60 to 315),
        # sliced from one table sized for the largest
        template = DEVICE_CONFIG if with_fidelity else SWEEP_CONFIG
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(template.replace("p_excited = 0", "p_excited = 0, 1e-4"))
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--config", str(cfg), "--format", "json", "--output", str(out)]
        assert main(argv + n_max_flag) == 0
        data = json.loads(out.read_text())["data"]
        config = config_from_args(build_parser().parse_args(argv + n_max_flag))
        assert config.sweep.with_fidelity == with_fidelity
        assert len(data["n_th"]) == 12
        for i, n_th in enumerate(data["n_th"]):
            ra_over_kappa, p_e = data["ra_over_kappa"][i], data["p"][i]
            point = replace(
                config.protocol,
                n_th=n_th,
                r_a=ra_over_kappa * config.protocol.kappa,
                p_e=p_e,
            )
            n_max = config.n_max or default_n_max(n_th)
            if config.sweep.with_fidelity:
                result = corrected_steady_state(point, config.env, n_max)
            else:
                kick = build_kick_map(point.g, point.tau, p_e, n_max)
                result = steady_state_analytic(point, kick, n_max)
            assert (data["mean_n_s"][i], data["delta_n"][i], data["p0_s"][i]) == (
                result.mean_n_s,
                result.delta_n,
                result.p0_s,
            )

    @pytest.mark.filterwarnings("ignore::kickcool.TruncationOverflowWarning")
    @pytest.mark.parametrize(
        "p_excited, n_th_index, ra_over_kappa, cause",
        [
            # p_e = 0.9 is below the bound 0.917 at n_th = 0.1, but the
            # excited-qubit swaps outrun damping at the truncation
            ("0.9", 0, 1000.0, "has not fallen below 1"),
            # the bound 0.917 at n_th = 0.1 holds for every r_a/kappa; the
            # first is named
            ("0.95", 0, 100.0, "normalizability bound"),
        ],
    )
    def test_numerical_failure_names_the_sweep_point(
        self, tmp_path, capsys, p_excited, n_th_index, ra_over_kappa, cause
    ):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG.replace("p_excited = 0", f"p_excited = 0, {p_excited}"))
        out = tmp_path / "s.csv"
        argv = ["sweep", "--config", str(cfg), "--output", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        n_th = config_from_args(build_parser().parse_args(argv)).sweep.n_th_grid[n_th_index]
        assert len(err.splitlines()) == 1
        assert f"n_th={n_th}," in err
        assert f"r_a/kappa={ra_over_kappa}:" in err
        assert f"p_e={p_excited}" in err
        assert cause in err
        assert not out.exists()

    def test_negative_n_th_is_config_error(self):
        with pytest.raises(ConfigError, match="non-negative"):
            SweepSpec(n_th_grid=(1.0, -1.0), ra_over_kappa=(100.0,), p_values=(0.0,))

    def test_fidelity_validity_warning_fires_once_per_run(self, tmp_path):
        # alpha_g = 2e-3 puts Gamma(omega0)*tau near 0.26, outside first order
        fig3 = PRESETS["fig3"]()
        config = RunConfig(
            mode="sweep",
            output=str(tmp_path / "s.csv"),
            protocol=fig3["protocol"],
            env=replace(fig3["env"], alpha_g=2e-3),
            sweep=replace(fig3["sweep"], n_th_grid=(0.1, 1.0), with_fidelity=True),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(config) == 0
        fidelity = [w for w in caught if "Gamma(omega0)*tau" in str(w.message)]
        assert len(fidelity) == 1

    @pytest.mark.parametrize("flags", [[], ["--with-fidelity"]])
    def test_fig3_sweep_peak_memory(self, tmp_path, flags):
        # one (len(p), n_max+1) product block at a time, plus the run-wide
        # level and 1 - ce2 tables (0.3 MB each), reads 4.9 / 5.2 MB here;
        # one block over all six points of an n_th read 7.2 / 7.5 MB, since
        # at n_th = 1e3 (40569 levels) each such block holds 1.9 MB
        argv = ["sweep", "--preset", "fig3", "--output", str(tmp_path / "s.csv"), *flags]
        assert main(argv) == 0  # imports and first-call caches before tracing
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestDeviceMode:
    def test_report_quantities(self, tmp_path):
        out = tmp_path / "device.csv"
        code = main(["device", "--preset", "device-paper", "--output", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        table = {r[0]: float(r[1]) for r in rows}
        assert table["kappa_per_s"] == pytest.approx(np.pi * 1e3, rel=1e-12)
        assert table["n_x"] == pytest.approx(15.0, rel=0.10)
        assert table["alpha_g"] == pytest.approx(1e-4, rel=0.20)
        assert table["budget_closes"] == 1.0

    def test_bath_too_cold_for_expm1_runs(self, tmp_path):
        # hbar*omega0/(k_B*T) ~ 4.8e6: n_th is exactly 0.0
        cfg = tmp_path / "run.ini"
        cfg.write_text(DEVICE_CONFIG.replace("temperature_mk = 10", "temperature_mk = 1e-6"))
        out = tmp_path / "device.csv"
        assert main(["device", "--config", str(cfg), "--output", str(out)]) == 0
        header, rows = read_rows(out)
        assert {r[0]: float(r[1]) for r in rows}["n_th"] == 0.0


class TestErrorPaths:
    def test_missing_parameters_is_config_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["evolve", "--output", str(out)]) == 2

    def test_config_and_preset_conflict(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_TEMPLATE)
        assert main(["evolve", "--config", str(cfg), "--preset", "fig2"]) == 2

    def test_unknown_preset_rejected(self):
        assert main(["evolve", "--preset", "nope"]) == 2

    def test_missing_key_reported(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[protocol]\ng_mhz = 10\n")
        assert main(["evolve", "--config", str(cfg)]) == 2

    def test_inline_comments_accepted(self, tmp_path):
        cfg = tmp_path / "run.ini"
        commented = CONFIG_TEMPLATE.replace(
            "n_th = 1.7", "n_th = 1.7   ; thermal occupation before cooling"
        )
        cfg.write_text(commented)
        out = tmp_path / "x.csv"
        code = main(
            ["steady", "--config", str(cfg), "--output", str(out), "--n-max", "60"]
        )
        assert code == 0

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            CONFIG_TEMPLATE.replace("p_e = 0.0", "p_e = 0.9").replace(
                "n_th = 1.7", "n_th = 5.0"
            )
        )
        out = tmp_path / "x.csv"
        assert main(["steady", "--config", str(cfg), "--output", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("kickcool: numerical failure: steady (analytic route): ")
        assert "normalizability bound" in err[0]

    @pytest.mark.parametrize(
        "mode, solver, stage",
        [
            ("evolve", "evolve", "evolve (integration)"),
            ("strobe", "evolve_stroboscopic", "strobe (damping and kicks)"),
            ("steady", "steady_state_numeric", "steady (null-space route)"),
        ],
    )
    def test_numerical_failure_names_mode_and_stage(
        self, tmp_path, capsys, monkeypatch, mode, solver, stage
    ):
        def fail(*args, **kwargs):
            raise ConvergenceError("solver gave up")

        monkeypatch.setattr(cli, solver, fail)
        out = tmp_path / "x.csv"
        assert main([mode, "--preset", "fig2", "--output", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"kickcool: numerical failure: {stage}: solver gave up"]
        assert not out.exists()

    def test_undershooting_strobe_is_numerical_failure(
        self, tmp_path, capsys, undershooting_solve
    ):
        # a damping period whose solve undershoots zero by 2e-11 at the top level
        out = tmp_path / "x.csv"
        assert main(["strobe", "--preset", "fig2", "--output", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "kickcool: numerical failure: strobe (damping and kicks): stepped "
            "population went negative"
        )
        assert not out.exists()

    def test_parser_built_once(self):
        assert build_parser() is build_parser()
        assert main(["evolve", "--no-such-flag"]) == 2
        assert build_parser().parse_args(["steady", "--preset", "fig2"]).preset == "fig2"

    @pytest.mark.parametrize(
        "argv",
        [
            ["strobe", "--kicks", "-1"],
            ["evolve", "--t-end-ra", "-5"],
            ["evolve", "--t-end-ra", "0"],
            ["evolve", "--t-end-ra", "nan"],
            ["evolve", "--t-end-ra", "inf"],
            ["steady", "--n-max", "0"],
            ["steady", "--n-max", "-3"],
        ],
    )
    def test_bad_run_lengths_are_config_errors(self, argv):
        args = build_parser().parse_args(argv + ["--preset", "fig2"])
        with pytest.raises(ConfigError):
            config_from_args(args)

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--preset", "fig2", "--with-fidelity"],
            ["device", "--preset", "device-paper", "--n-max", "5"],
        ],
    )
    def test_flags_a_mode_ignores_are_rejected(self, tmp_path, argv):
        out = tmp_path / "x.csv"
        assert main(argv + ["--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, old, new",
        [
            ("device", "tau_ns = 25", "tau_ns = nan"),
            ("device", "temperature_mk = 10", "temperature_mk = inf"),
            ("evolve", "n_th = 1.7", "n_th = inf"),
            ("strobe", "n_th = 1.7", "n_th = inf"),
            ("steady", "n_th = 1.7", "n_th = inf"),
            ("steady", "n_th = 1.7", "n_th = nan"),
            ("sweep", "ra_over_kappa = 100, 1000", "ra_over_kappa = 100, inf"),
        ],
    )
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, mode, old, new):
        template = {"device": DEVICE_CONFIG, "sweep": SWEEP_CONFIG}.get(mode, CONFIG_TEMPLATE)
        cfg = tmp_path / "run.ini"
        cfg.write_text(template.replace(old, new))
        out = tmp_path / "x.csv"
        assert main([mode, "--config", str(cfg), "--output", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["steady", "sweep"])
    def test_zero_kappa_is_config_error(self, tmp_path, capsys, mode):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            SWEEP_CONFIG.replace("kappa_mhz = 0.0031415926535897933", "kappa_mhz = 0")
        )
        out = tmp_path / "x.csv"
        assert main([mode, "--config", str(cfg), "--output", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["device", "sweep"])
    @pytest.mark.parametrize(
        "old, new", [("tau_ns = 25", "tau_ns = -25"), ("ra_mhz = 3.0", "ra_mhz = -3")]
    )
    def test_bad_device_timing_is_config_error(self, tmp_path, capsys, mode, old, new):
        cfg = tmp_path / "run.ini"
        cfg.write_text(DEVICE_CONFIG.replace(old, new))
        out = tmp_path / "x.csv"
        assert main([mode, "--config", str(cfg), "--output", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_kick_rate_is_config_error_in_device_mode(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(DEVICE_CONFIG.replace("ra_mhz = 3.0", "ra_mhz = 0"))
        out = tmp_path / "x.csv"
        assert main(["device", "--config", str(cfg), "--output", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, old, new",
        [
            ("steady", "n_th = 1.7", "n_th = 1e17"),
            ("evolve", "n_th = 1.7", "n_th = 1e17"),
            ("sweep", "n_th_max = 10", "n_th_max = 1e17"),
        ],
    )
    def test_unsizable_n_th_is_config_error(self, tmp_path, capsys, mode, old, new):
        # n_th/(n_th+1) rounds to 1: no truncation keeps the thermal tail small
        template = SWEEP_CONFIG if mode == "sweep" else CONFIG_TEMPLATE
        cfg = tmp_path / "run.ini"
        cfg.write_text(template.replace(old, new))
        out = tmp_path / "x.csv"
        assert main([mode, "--config", str(cfg), "--output", str(out)]) == 2
        assert "too large to size a truncation" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, new, extra",
        [
            ("steady", "n_th = 1e6", []),
            ("steady", "n_th = 1e15", []),
            ("evolve", "n_th = 1e15", []),
            ("steady", "n_th = 1.7", ["--n-max", str(10**9)]),
        ],
    )
    def test_oversized_truncation_is_config_error(
        self, tmp_path, capsys, mode, new, extra
    ):
        # sized, but far beyond what any run path can hold in memory
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_TEMPLATE.replace("n_th = 1.7", new))
        out = tmp_path / "x.csv"
        argv = [mode, "--config", str(cfg), "--output", str(out), *extra]
        assert main(argv) == 2
        limit = MAX_STEPPED_LEVELS if mode == "evolve" else MAX_LEVELS
        assert f"{mode} limit of {limit} levels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["strobe", "evolve"])
    def test_stepped_truncation_beyond_limit_is_config_error(
        self, tmp_path, capsys, mode
    ):
        # one level more than the banded stepper of either mode may hold
        out = tmp_path / "x.csv"
        argv = [mode, "--preset", "fig2", "--output", str(out),
                "--n-max", str(MAX_STEPPED_LEVELS)]
        assert main(argv) == 2
        assert f"{mode} limit of {MAX_STEPPED_LEVELS} levels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_max", [4118, 40568, MAX_STEPPED_LEVELS - 1])
    def test_strobe_truncation_within_limit_is_accepted(
        self, tmp_path, monkeypatch, n_max
    ):
        # stop at the solver: the truncation passed every configuration check
        seen = []

        def stop(initial, params, kick, n_kicks):
            seen.append(initial.n_max)
            raise ConvergenceError("stopped before the damping propagator")

        monkeypatch.setattr(cli, "evolve_stroboscopic", stop)
        out = tmp_path / "x.csv"
        argv = ["strobe", "--preset", "fig2", "--output", str(out), "--n-max", str(n_max)]
        assert main(argv) == 3
        assert seen == [n_max]

    @pytest.mark.parametrize(
        # the largest sample block the removed population limit accepted at 61
        # levels, and the level limit of evolve's stepper
        "n_max, samples", [(855, 481), (60, 327868), (MAX_STEPPED_LEVELS - 1, 481)]
    )
    def test_sample_block_within_limit_is_accepted(
        self, tmp_path, monkeypatch, n_max, samples
    ):
        # stop at the solver: the run passed every configuration check
        seen = []

        def stop(initial, gen, t_end, sample_times):
            seen.append(sample_times.size * (initial.n_max + 1))
            raise ConvergenceError("stopped before the integration")

        monkeypatch.setattr(cli, "evolve", stop)
        out = tmp_path / "x.csv"
        argv = ["evolve", "--preset", "fig2", "--output", str(out),
                "--n-max", str(n_max), "--samples", str(samples)]
        assert main(argv) == 3
        assert seen == [samples * (n_max + 1)]

    @pytest.mark.parametrize(
        "argv, rows",
        [
            # both used to exit 1 under an address limit: np.logspace of a
            # 1e8-point n_th grid, and strobe's lists of 2e8 + 1 samples
            (["sweep", "--config"], 200000000),
            (["strobe", "--preset", "fig2", "--kicks", "100000000"], 200000001),
            (["strobe", "--preset", "fig2", "--kicks", str(MAX_ROWS // 2)], MAX_ROWS + 1),
            (["evolve", "--preset", "fig2", "--samples", str(MAX_ROWS + 1)], MAX_ROWS + 1),
        ],
    )
    def test_rows_beyond_limit_are_config_errors(self, tmp_path, capsys, argv, rows):
        if argv[0] == "sweep":
            cfg = tmp_path / "sweep.ini"
            cfg.write_text(SWEEP_CONFIG.replace("n_th_count = 3", "n_th_count = 100000000"))
            argv = argv + [str(cfg)]
        out = tmp_path / "x.csv"
        assert main(argv + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{argv[0]} would write {rows} rows, above the row limit of {MAX_ROWS}" in err
        assert not out.exists()

    def test_sweep_spec_beyond_row_limit_is_config_error(self):
        spec = SweepSpec(
            n_th_grid=tuple(np.linspace(0.1, 1.0, MAX_ROWS // 2 + 1)),
            ra_over_kappa=(100.0, 1000.0),
            p_values=(0.0,),
        )
        with pytest.raises(ConfigError, match=f"row limit of {MAX_ROWS}"):
            RunConfig(mode="sweep", output="x.csv", protocol=PRESETS["fig3"]()["protocol"],
                      sweep=spec)

    @pytest.mark.filterwarnings("ignore::kickcool.TruncationOverflowWarning")
    @pytest.mark.parametrize(
        "argv, seen",
        [
            (["strobe", "--kicks", str((MAX_ROWS - 1) // 2)], (MAX_ROWS - 1) // 2),
            (["evolve", "--samples", str(MAX_ROWS)], MAX_ROWS),
        ],
    )
    def test_rows_at_limit_are_accepted(self, tmp_path, monkeypatch, argv, seen):
        # stop at the solver: the run passed every configuration check
        runs = []

        def stop(*args, **kwargs):
            runs.append(args[3] if argv[0] == "strobe" else kwargs["sample_times"].size)
            raise ConvergenceError("stopped before the run")

        monkeypatch.setattr(cli, "evolve_stroboscopic" if argv[0] == "strobe" else "evolve", stop)
        out = tmp_path / "x.csv"
        assert main(argv + ["--preset", "fig2", "--n-max", "1", "--output", str(out)]) == 3
        assert runs == [seen]

    def test_unwritable_output(self, tmp_path):
        assert (
            main(
                ["steady", "--preset", "fig2", "--output",
                 str(tmp_path / "missing" / "x.csv")]
            )
            == 2
        )


def test_presets_encode_reference_parameters():
    fig2 = PRESETS["fig2"]()["protocol"]
    assert fig2.n_th == 1.7
    assert fig2.r_a / fig2.kappa == pytest.approx(133.0, rel=1e-12)
    assert fig2.theta == pytest.approx(np.pi / 8.0, rel=1e-12)
    fig3 = PRESETS["fig3"]()
    assert fig3["protocol"].theta == pytest.approx(np.pi / 2.0, rel=1e-12)
    grid = fig3["sweep"].n_th_grid
    assert grid[0] == pytest.approx(1e-2) and grid[-1] == pytest.approx(1e3)
    assert fig3["sweep"].ra_over_kappa == (1e2, 1e3)
    assert fig3["sweep"].p_values == (0.0, 1e-4, 1e-5)
    dev = PRESETS["device-paper"]()
    assert dev["device"].q_factor == 2e5
    assert dev["device_tau"] == 25e-9
    assert dev["device_ra"] == 3e6
