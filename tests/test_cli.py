"""Command-line interface tests: config parsing, outputs, exit codes."""

import json
import re
import subprocess
from dataclasses import fields, replace

import numpy as np
import pytest

from emhd1d import blowup, cli, lp, solver
from emhd1d.blowup import FitWindowError, advect_trajectory, run_blowup
from emhd1d.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_TOLERANCE,
    ConfigError,
    RunConfig,
    cmd_selftest,
    main,
    parse_config_text,
)
from emhd1d.diagnostics import norm_series
from emhd1d.solver import ModelParams, StepperConfig, evolve
from emhd1d.spectral import (
    GridSpec, SpectralField, derivative, evaluate_at, frac_laplacian, hilbert, product, riesz_potential
)

RUN_CFG = """
# small smooth run
grid.L = 3.141592653589793
grid.N = 128
model.kind = full
model.mu = 1.0
model.alpha = 2.0
stepper.dt_init = 1e-3
stepper.t_end = 0.05
outputs.snapshot_cadence = 10
diagnostics.s_list = 0.0, 1.0
"""


LP_CFG = "grid.L = 3.141592653589793\ngrid.N = 256\n"


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(RUN_CFG)
    return p


def write_cfg(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def loop_selftest():
    """``cmd_selftest``'s report from one field at a time, as the suite ran
    before it took stacks: the reference its stacked form must match."""
    grid = GridSpec(np.pi, 256)
    rng = np.random.default_rng(12345)
    worst = {}

    def track(name, diff, f):
        rel = float(np.sqrt(grid.norm2(diff))) / max(f.l2_norm(), 1e-300)
        worst[name] = max(worst.get(name, 0.0), rel)

    mean_only = grid.mode_index == 0
    for _ in range(100):
        f = lp.random_band_limited(grid, rng, decay=float(rng.uniform(0.05, 0.3)))
        track("HH", hilbert(hilbert(f)).coef + f.coef - np.where(mean_only, f.coef, 0.0), f)
        track("lambda", frac_laplacian(f, 1.0).coef - hilbert(derivative(f)).coef, f)
        lam_i = frac_laplacian(riesz_potential(f, 0.5), 0.5).coef
        track("riesz", lam_i - np.where(mean_only, 0.0, f.coef), f)
        hf = hilbert(f)
        rhs = 0.5 * (grid.to_coef(hf.phys**2) - grid.to_coef(f.phys**2))
        rhs[0] = 0.0
        track("fhf", hilbert(product(f, hf, dealiased=False)).coef - rhs, f)
    return worst


def capped_at_three_steps(tmp_path, monkeypatch):
    """A run config whose run stops at a step cap of 3, short of t_end."""
    monkeypatch.setattr(solver, "MAX_STEPS", 3)
    return write_cfg(
        tmp_path, "grid.L = 3.141592653589793\ngrid.N = 256\nstepper.t_end = 0.05\nstepper.dt_init = 1e-3\n"
    )


def overflowing(tmp_path, monkeypatch=None):
    """A finite datum that overflows: mu = 0 transport from 1e200 at a fixed
    dt (the adaptive dt would shrink to a cfl_collapse instead)."""
    arr = 1e200 * np.sin(3.0 * np.linspace(-np.pi, np.pi, 64, endpoint=False))
    raw = tmp_path / "datum.bin"
    arr.astype("<f8").tofile(raw)
    return write_cfg(
        tmp_path,
        "grid.L = 3.141592653589793\ngrid.N = 64\nmodel.kind = transport\nmodel.mu = 0.0\n"
        f"stepper.adaptive = false\nstepper.t_end = 0.01\ndatum.kind = from_file\ndatum.path = {raw}\n",
    )


def ill_posed(tmp_path, monkeypatch=None):
    """Transport at alpha = 0.5 from the reference datum: Hadamard ill-posed,
    so the guard stops it before its blowup threshold of 80."""
    return write_cfg(
        tmp_path,
        "grid.L = 6\ngrid.N = 2048\nmodel.kind = transport\nmodel.mu = 1\nmodel.alpha = 0.5\n"
        "datum.kind = paper_blowup\nstepper.dt_init = 1e-4\nstepper.t_end = 1.5\nstepper.blowup_threshold = 80\n",
    )


def collapsing(tmp_path, monkeypatch=None, threshold="", norm="1e12"):
    """A rough transport datum of norm 1e12, whose first step the CFL bound
    would shrink below 1e-12: a cfl_collapse before any step.  At norm 1e10
    the collapse comes after three steps."""
    return write_cfg(
        tmp_path,
        f"grid.N = 128\nmodel.kind = transport\ndatum.kind = random_rough\ndatum.norm = {norm}\n{threshold}",
    )


def wrong_size_datum(tmp_path):
    """A from_file config on 64 nodes whose datum file holds 10 values."""
    raw = tmp_path / "datum.bin"
    np.zeros(10).astype("<f8").tofile(raw)
    return write_cfg(tmp_path, f"grid.N = 64\ndatum.kind = from_file\ndatum.path = {raw}\n")


def out_holding_dir(tmp_path, name):
    """An --out directory that holds a directory named ``name`` beside an
    earlier run's manifest.json and steps.csv files."""
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    for earlier in {"manifest.json", "steps.csv"} - {name}:
        (out / earlier).write_text("earlier run\n")
    return out


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """The header and the (column, row) float values of a CSV the CLI wrote,
    after checking that every line of it ends in CRLF."""
    text = path.read_bytes().decode()
    lines = text.split("\r\n")
    assert lines[-1] == "" and "\n" not in text.replace("\r\n", "")
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")] for ln in lines[1:-1]]).T


def failed_gates(out) -> list[str]:
    """The names of the gates the run's manifest records as failed."""
    gates = json.loads((out / "manifest.json").read_text())["gates"]
    return [g["name"] for g in gates if not g["passed"]]


def fit_window_missed(tmp_path, monkeypatch):
    """A blowup config whose run stops at the threshold but whose Riccati fit
    finds no samples in its window."""
    def no_window(traj, w0):
        raise FitWindowError("no samples with w inside the fit window")

    monkeypatch.setattr(blowup, "measure_blowup_time", no_window)
    return write_cfg(tmp_path, "grid.L = 6.0\ngrid.N = 2048\n")


class TestConfigParsing:
    def test_key_value_with_comments(self):
        kv = parse_config_text("a.b = 1  # trailing\n\n# full line\nc.d = x y\n")
        assert kv == {"a.b": "1", "c.d": "x y"}

    def test_missing_equals_raises(self):
        with pytest.raises(ConfigError):
            parse_config_text("just a line\n")

    def test_empty_value_raises(self):
        with pytest.raises(ConfigError):
            parse_config_text("a.b =\n")

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        # a repeated key is an error, not a silent override by the last line
        text = "grid.N = 64\nmodel.mu = 1\n# mu again\nmodel.mu = 2\n"
        with pytest.raises(ConfigError, match="line 4: duplicate key 'model.mu'"):
            parse_config_text(text)
        p = write_cfg(tmp_path, text)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: line 4: duplicate key 'model.mu'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "series.csv").exists()

    def test_unknown_key_rejected(self, tmp_path):
        # "datum" names a method, "raw" a field that is not a key, "grid_L"
        # a field spelled without its section dot; "outputs.directory" was
        # never read (--out names the output directory)
        p = tmp_path / "bad.cfg"
        for line in ("grid.M = 3", "datum = 1", "raw = 1", "grid_L = 3", "outputs.directory = out"):
            p.write_text(line + "\n")
            with pytest.raises(ConfigError):
                RunConfig.from_file(p)
            assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_dealias_key_rejected(self, tmp_path, capsys):
        # the 2/3 cut is the constant spectral.DEALIAS_FRACTION, not a key
        p = write_cfg(tmp_path, "grid.N = 64\ngrid.dealias = 0.5\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG == 2
        assert "config error: unknown config key: grid.dealias" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        for line in ("grid.N = many", "model.mu = nan", "grid.L = nan", "stepper.adaptive = ture",
                     "stepper.scheme = rk3", "datum.kind = sine"):
            p.write_text(line + "\n")
            with pytest.raises(ConfigError):
                RunConfig.from_file(p)
            assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    # at the default alpha = 2, lam = 1e200 overflows lam^alpha, lam = 1e-200
    # scales dt_init to 0 in the rescaled run, and at lam = 1e154 the
    # contracted grid's top |xi|^2 overflows
    @pytest.mark.parametrize("lam", ["nan", "0", "-2", "1e200", "1e-200", "1e154"])
    def test_bad_symmetry_lam_rejected(self, tmp_path, capsys, lam):
        p = tmp_path / "sym.cfg"
        p.write_text(f"grid.N = 64\nsymmetry.lam = {lam}\n")
        assert main(["symmetry", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: symmetry.lam")

    @pytest.mark.parametrize("lam", ["1e150", "1e-150"])
    def test_extreme_symmetry_lam_inside_float_range_runs(self, tmp_path, lam):
        p = write_cfg(tmp_path, RUN_CFG + f"symmetry.lam = {lam}\n")
        assert main(["symmetry", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK

    @pytest.mark.parametrize("line", [
        "diagnostics.s_list = 1, nan", "diagnostics.s_list = inf",
        "datum.norm = nan", "datum.norm = inf", "datum.s_base = nan", "datum.s_base = inf",
    ])
    def test_non_finite_datum_and_diagnostics_rejected(self, tmp_path, capsys, line):
        p = tmp_path / "nf.cfg"
        p.write_text(f"grid.N = 64\nstepper.t_end = 0.01\ndatum.kind = random_rough\n{line}\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"{line.split(' =')[0]} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "series.csv").exists()

    @pytest.mark.parametrize("val, expected", [("TRUE", True), ("on", True), ("0", False), ("No", False)])
    def test_bool_spellings(self, tmp_path, val, expected):
        p = tmp_path / "b.cfg"
        p.write_text(f"stepper.adaptive = {val}\n")
        assert RunConfig.from_file(p).stepper.adaptive is expected

    def test_invalid_grid_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("grid.N = 7\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(p)

    def test_typed_fields(self, cfg_file):
        cfg = RunConfig.from_file(cfg_file)
        assert cfg.grid_N == 128
        assert cfg.diagnostics_s_list == (0.0, 1.0)
        assert cfg.model.alpha == 2.0

    def test_stepper_defaults_are_the_library_defaults(self, tmp_path):
        # outputs.snapshot_cadence alone has a default of its own
        cfg = RunConfig.from_file(write_cfg(tmp_path, "grid.N = 64\n"))
        assert cfg.stepper == StepperConfig(snapshot_cadence=10)
        assert cfg.model == ModelParams("full", 1.0, 2.0)

    def test_accepted_keys_are_pinned(self, tmp_path):
        # every section.name spelling of a field of RunConfig, ModelParams or
        # StepperConfig is tried, so a field added to any of them shows up
        # here as a key change to be made on purpose
        names = {f.name for cls in (RunConfig, ModelParams, StepperConfig) for f in fields(cls)}
        names |= {n.split("_", 1)[1] for n in names if "_" in n}
        sections = ("grid", "model", "stepper", "datum", "outputs", "diagnostics", "symmetry")

        def accepted(key):
            try:
                RunConfig.from_file(write_cfg(tmp_path, f"{key} = 1\n"))
            except ConfigError as exc:
                return not str(exc).startswith("unknown config key")
            return True

        assert {key for s in sections for n in names if accepted(key := f"{s}.{n}")} == {
            "grid.L", "grid.N", "model.kind", "model.mu", "model.alpha", "stepper.scheme", "stepper.dt_init",
            "stepper.cfl_safety", "stepper.t_end", "stepper.blowup_threshold", "stepper.adaptive", "datum.kind",
            "datum.s_base", "datum.norm", "datum.seed", "datum.path", "outputs.snapshot_cadence",
            "diagnostics.s_list", "symmetry.lam",
        }


class TestCommands:
    def test_run_writes_outputs(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_OK
        for name in ("series.csv", "snapshots.bin", "snapshots.json", "manifest.json"):
            assert (out / name).is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "t_end"
        assert manifest["config"] == RunConfig.from_file(cfg_file).raw
        sidecar = json.loads((out / "snapshots.json").read_text())
        data = np.fromfile(out / "snapshots.bin", dtype="<f8").reshape(sidecar["shape"])
        assert data.shape[1] == 128

    def test_snapshot_frames_ascend_from_minus_l(self, tmp_path):
        # whatever order phys is held in, a frame on disk runs over
        # x = -L + 2 L j / N in ascending order
        p = write_cfg(
            tmp_path,
            "grid.L = 6\ngrid.N = 256\ndatum.kind = gaussian_packet\nstepper.adaptive = false\n"
            "stepper.t_end = 0.04\noutputs.snapshot_cadence = 1\n",
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_OK
        data = np.fromfile(out / "snapshots.bin", dtype="<f8").reshape(-1, 256)
        x = -6.0 + 12.0 * np.arange(256) / 256
        assert np.max(np.abs(data[0] - np.exp(-(x**2)) * np.sin(3.0 * x))) <= 1e-12
        # 41 frames, written in blocks, are each frame's own transform
        cfg = RunConfig.from_file(p)
        run = evolve(cfg.datum(cfg.grid()), cfg.model, cfg.stepper)
        assert data.shape[0] == len(run.coefs) == 41
        assert np.array_equal(data, [np.fft.fftshift(run.grid.to_phys(c)) for c in run.coefs])

    @pytest.mark.parametrize("snapshots", [31, 32, 33, 64])
    def test_streamed_outputs_match_the_table_run(self, tmp_path, snapshots):
        # a run streams its snapshots in blocks of 32; at the block edges its
        # series.csv and snapshots.bin are bitwise the norm_series and the
        # per-row frames of the same run made with a snapshot table; the
        # 64-snapshot run steps down from N to N/2 at step 187, snapshot 38
        p = write_cfg(
            tmp_path,
            "grid.L = 3.141592653589793\ngrid.N = 256\nmodel.alpha = 1.5\nstepper.adaptive = false\n"
            f"stepper.dt_init = {2.0**-10!r}\nstepper.t_end = {5 * (snapshots - 1) * 2.0**-10!r}\n"
            "datum.kind = random_rough\ndatum.s_base = 1.0\ndatum.seed = 3\noutputs.snapshot_cadence = 5\n"
            "diagnostics.s_list = 0, 1\n",
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_OK
        cfg = RunConfig.from_file(p)
        run = evolve(cfg.datum(cfg.grid()), cfg.model, cfg.stepper)
        assert run.termination == "t_end" and len(run.times) == snapshots
        ns = norm_series(run, list(cfg.diagnostics_s_list))
        expected = [ns.times] + [a[i] for i in range(2) for a in (ns.hs, ns.hs_diss, ns.budget)]
        assert read_csv(out / "series.csv")[1].tobytes() == np.array(expected).tobytes()
        frames = np.array([np.fft.fftshift(run.grid.to_phys(c)) for c in run.coefs])
        assert (out / "snapshots.bin").read_bytes() == frames.astype("<f8").tobytes()
        sidecar = json.loads((out / "snapshots.json").read_text())
        assert sidecar["times"] == run.times.tolist() and sidecar["shape"] == [snapshots, 256]

    def test_run_memory_does_not_grow_with_its_snapshots(self, tmp_path, traced_peak):
        # a run holds one block of 32 snapshot rows, not a table of them:
        # ten times the snapshots move its traced peak by less than a block
        # (0.07 MB apart; with a table, 40 and 400 snapshots peaked 6.5 MB apart)
        def peak(steps):
            p = write_cfg(
                tmp_path,
                "grid.L = 6\ngrid.N = 2048\nstepper.adaptive = false\nstepper.dt_init = 1e-3\n"
                f"stepper.t_end = {steps}e-3\noutputs.snapshot_cadence = 1\n",
                f"{steps}.cfg",
            )
            code, peak = traced_peak(lambda: main(["run", "--config", str(p), "--out", str(tmp_path / str(steps))]))
            assert code == EXIT_OK
            return peak

        assert abs(peak(400) - peak(40)) < 32 * 1025 * 16

    def test_datum_file_round_trips_in_ascending_order(self, tmp_path):
        # a datum file ascending in x from -L is the field's values there,
        # and frame 0 writes them back in that order; a field of period 2L
        # but not L, so that a half-period shift cannot pass
        x = -np.pi + 2.0 * np.pi * np.arange(128) / 128
        arr = 0.05 * (np.sin(x) + 0.5 * np.cos(2.0 * x))
        raw = tmp_path / "datum.bin"
        arr.astype("<f8").tofile(raw)
        p = write_cfg(
            tmp_path,
            "grid.L = 3.141592653589793\ngrid.N = 128\nstepper.t_end = 0.01\n"
            f"datum.kind = from_file\ndatum.path = {raw}\n",
        )
        cfg = RunConfig.from_file(p)
        assert np.max(np.abs(evaluate_at(cfg.datum(cfg.grid()), x) - arr)) <= 1e-13
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_OK
        frame0 = np.fromfile(out / "snapshots.bin", dtype="<f8", count=128)
        assert np.max(np.abs(frame0 - arr)) <= 1e-13

    def test_run_deterministic(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg_file), "--out", str(out1)])
        main(["run", "--config", str(cfg_file), "--out", str(out2)])
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
        assert (out1 / "snapshots.bin").read_bytes() == (out2 / "snapshots.bin").read_bytes()

    def test_missing_config_is_config_error(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_config_required(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_symmetry_command(self, cfg_file, tmp_path):
        out = tmp_path / "sym"
        code = main(["symmetry", "--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_OK
        rep = json.loads((out / "symmetry.json").read_text())
        assert rep["rel_l2_mismatch"] <= 1e-6

    def test_symmetry_seed_option_overrides_datum_seed(self, tmp_path):
        # at lam = 3 the mismatch is roundoff that depends on the datum
        text = (
            "grid.L = 3.141592653589793\ngrid.N = 256\nstepper.t_end = 0.05\nstepper.dt_init = 1e-3\n"
            "symmetry.lam = 3\ndatum.kind = random_rough\n"
        )

        def mismatch(name, text, *extra):
            out = tmp_path / name
            assert main(["symmetry", "--config", str(write_cfg(tmp_path, text, name + ".cfg")), "--out", str(out),
                         *extra]) == EXIT_OK
            return json.loads((out / "symmetry.json").read_text())["rel_l2_mismatch"]

        by_option = mismatch("option", text, "--seed", "4")
        assert by_option == mismatch("key", text + "datum.seed = 4\n")
        assert by_option != mismatch("seed0", text)

    def test_csv_outputs_parse_back_to_their_arrays(self, cfg_file, tmp_path):
        # every file is a header line and one row per entry, CRLF line ends,
        # and each value at 17 significant digits reads back bitwise
        def check_steps(out, run):
            header, values = read_csv(out / "steps.csv")
            assert header == ["t", *run.diagnostics]
            assert values.tobytes() == np.array([run.step_times[1:], *run.diagnostics.values()], dtype=float).tobytes()

        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
        cfg = RunConfig.from_file(cfg_file)
        run = evolve(cfg.datum(cfg.grid()), cfg.model, cfg.stepper)
        ns = norm_series(run, list(cfg.diagnostics_s_list))
        header, values = read_csv(out / "series.csv")
        assert header == ["t", "hs_0", "hdiss_0", "budget_0", "hs_1", "hdiss_1", "budget_1"]
        expected = [ns.times] + [a[i] for i in range(2) for a in (ns.hs, ns.hs_diss, ns.budget)]
        assert values.tobytes() == np.array(expected).tobytes()
        keys = ["dt", "bound", "sup_lam_b", "sup_lam_bx", "max_lam_bx", "n_modes", "a", "gamma", "G"]
        assert list(run.diagnostics) == keys
        check_steps(out, run)

        p = write_cfg(tmp_path, "grid.L = 6\ngrid.N = 2048\n", "blow.cfg")
        out = tmp_path / "blowout"
        assert main(["blowup", "--config", str(p), "--out", str(out)]) == EXIT_OK
        run, datum = run_blowup(GridSpec(6.0, 2048))
        traj = advect_trajectory(run, datum.x0)
        header, values = read_csv(out / "trajectory.csv")
        assert header == ["t", "X", "bx", "bxx", "w", "inv_w"]
        expected = [traj.t, traj.X, traj.bx, traj.bxx, traj.w, 1.0 / traj.w]
        assert values.tobytes() == np.array(expected).tobytes()
        check_steps(out, run)

    def test_lp_command(self, tmp_path):
        p = write_cfg(tmp_path, LP_CFG, "lp.cfg")
        out = tmp_path / "lp"
        code = main(["lp", "--config", str(p), "--out", str(out)])
        assert code == EXIT_OK
        rep = json.loads((out / "lp_report.json").read_text())
        assert rep["bernstein"][0]["max_ratio"] <= 4.0

    def test_selftest(self, tmp_path):
        assert cmd_selftest(tmp_path) == EXIT_OK
        worst = json.loads((tmp_path / "selftest.json").read_text())
        assert all(v <= 1e-10 for v in worst.values())

    def test_selftest_report_matches_the_loop_reference_and_the_pin(self, tmp_path, capsys):
        # the suite takes one stack of its 100 fields; its report is bitwise
        # the one-field-at-a-time suite's
        assert cmd_selftest(tmp_path) == EXIT_OK
        worst = json.loads((tmp_path / "selftest.json").read_text())
        assert worst == loop_selftest()
        assert "selftest: PASS" in capsys.readouterr().out
        # and the report as that suite wrote it with numpy 2.4 on x86-64:
        # exact there; the defects are relative to ||f||, and a numpy that
        # takes other SIMD paths moves the roundoff-level ones (fhf by 9e-18
        # with AVX-512 dispatch off), so each is held to 4 ulp of 1
        pinned = {"HH": 0.0, "lambda": 0.0, "riesz": 2.613848111412419e-16, "fhf": 3.039254528699848e-15}
        assert list(worst) == list(pinned)
        assert all(abs(worst[k] - v) <= 4 * np.spacing(1.0) for k, v in pinned.items())

    def test_sweep(self, cfg_file, tmp_path):
        # one config listed twice: two run directories, and one record each
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(f"{cfg_file}\n{cfg_file}\n")
        out = tmp_path / "sw"
        code = main(["run", "--sweep", str(sweep), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "sweep_000" / "series.csv").is_file()
        assert (out / "sweep_001" / "series.csv").is_file()
        assert json.loads((out / "sweep.json").read_text()) == {
            "sweep_000": {"config": str(cfg_file), "exit": EXIT_OK},
            "sweep_001": {"config": str(cfg_file), "exit": EXIT_OK},
        }

    def test_sweep_records_each_exit_code(self, cfg_file, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("grid.N = many\n")
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(f"{cfg_file}\n{bad}\n")
        out = tmp_path / "sw"
        # the aggregate is the most severe code: a config error outranks a pass
        assert main(["run", "--sweep", str(sweep), "--out", str(out)]) == EXIT_CONFIG
        record = json.loads((out / "sweep.json").read_text())
        assert record == {
            "sweep_000": {"config": str(cfg_file), "exit": EXIT_OK},
            "sweep_001": {"config": str(bad), "exit": EXIT_CONFIG},
        }
        assert (out / "sweep_000" / "series.csv").is_file()

    def test_sweep_outputs_match_plain_runs(self, cfg_file, tmp_path):
        # each sweep directory holds what a plain run of its config writes,
        # byte for byte but for the manifest's wall times
        other = write_cfg(tmp_path, RUN_CFG.replace("model.alpha = 2.0", "model.alpha = 1.5"), "other.cfg")
        sweep = write_cfg(tmp_path, f"{cfg_file}\n{other}\n", "sweep.txt")
        assert main(["run", "--sweep", str(sweep), "--out", str(tmp_path / "sw")]) == EXIT_OK
        for i, p in enumerate((cfg_file, other)):
            plain = tmp_path / f"plain_{i}"
            swept = tmp_path / "sw" / f"sweep_{i:03d}"
            assert main(["run", "--config", str(p), "--out", str(plain)]) == EXIT_OK
            for name in ("series.csv", "snapshots.bin", "snapshots.json"):
                assert (swept / name).read_bytes() == (plain / name).read_bytes(), (i, name)
            manifests = [json.loads((d / "manifest.json").read_text()) for d in (swept, plain)]
            for m in manifests:
                assert set(m.pop("wall_s")) == {"evolve", "snapshots", "outputs"}
            assert manifests[0] == manifests[1], i

    def test_sweep_record_keeps_file_order(self, tmp_path):
        # listed against both the alphabetical and the reverse order
        small = RUN_CFG.replace("stepper.t_end = 0.05", "stepper.t_end = 0.002")
        names = ["m.cfg", "z.cfg", "a.cfg"]
        paths = [str(write_cfg(tmp_path, small, name)) for name in names]
        sweep = write_cfg(tmp_path, "\n".join(paths) + "\n", "sweep.txt")
        out = tmp_path / "sw"
        assert main(["run", "--sweep", str(sweep), "--out", str(out)]) == EXIT_OK
        record = json.loads((out / "sweep.json").read_text())
        assert list(record) == ["sweep_000", "sweep_001", "sweep_002"]
        assert [r["config"] for r in record.values()] == paths

    def test_sweep_missing_file(self, tmp_path):
        assert main(["run", "--sweep", str(tmp_path / "no.txt"), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_sweep_listing_no_config_names_its_file(self, tmp_path, capsys):
        sweep = write_cfg(tmp_path, "\n   \n\n", "sweep.txt")
        out = tmp_path / "sw"
        assert main(["run", "--sweep", str(sweep), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: sweep file lists no config: {sweep}\n"
        assert not out.exists()

    def test_selftest_command_writes_its_report(self, tmp_path, capsys):
        out = tmp_path / "nested" / "selftest"
        assert main(["selftest", "--out", str(out)]) == EXIT_OK
        worst = json.loads((out / "selftest.json").read_text())
        assert set(worst) == {"HH", "lambda", "riesz", "fhf"}
        assert "selftest: PASS" in capsys.readouterr().out

    def test_missing_datum_path_is_config_error(self, tmp_path, capsys):
        p = write_cfg(tmp_path, f"grid.N = 128\ndatum.kind = from_file\ndatum.path = {tmp_path / 'no.bin'}\n")
        with pytest.raises(ConfigError, match="datum.path not found"):
            RunConfig.from_file(p)
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: datum.path not found")
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("stepper.dt_init = 0", "dt_init and t_end must be positive"),
            ("stepper.t_end = -1", "dt_init and t_end must be positive"),
            ("stepper.cfl_safety = 0", "cfl_safety must lie in (0, 1]"),
            ("stepper.cfl_safety = 1.5", "cfl_safety must lie in (0, 1]"),
        ],
    )
    def test_stepper_guard_in_config_is_config_error(self, tmp_path, capsys, line, message):
        p = write_cfg(tmp_path, f"grid.N = 64\n{line}\n")
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig.from_file(p)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("setup", [lambda tmp, mp: write_cfg(tmp, RUN_CFG), capped_at_three_steps],
                             ids=["t_end", "max_steps"])
    def test_run_snapshots_phase_is_its_observer_s(self, tmp_path, monkeypatch, setup):
        # the "snapshots" phase is the time evolve spent in the run's
        # observer, on a failing run too, and is taken out of "evolve"
        runs = []

        def kept_evolve(*args):
            runs.append(evolve(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "evolve", kept_evolve)
        p = setup(tmp_path, monkeypatch)
        out = tmp_path / "o"
        main(["run", "--config", str(p), "--out", str(out)])
        wall = json.loads((out / "manifest.json").read_text())["wall_s"]
        assert len(runs) == 1
        assert wall["snapshots"] == runs[0].observer_s > 0.0

    def test_datum_from_file(self, tmp_path):
        arr = 0.05 * np.sin(np.linspace(-np.pi, np.pi, 128, endpoint=False))
        raw = tmp_path / "datum.bin"
        arr.astype("<f8").tofile(raw)
        p = tmp_path / "ff.cfg"
        p.write_text(
            "grid.L = 3.141592653589793\ngrid.N = 128\nmodel.alpha = 2.0\n"
            f"stepper.t_end = 0.01\ndatum.kind = from_file\ndatum.path = {raw}\n"
        )
        out = tmp_path / "ffout"
        assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("command", ["run", "symmetry"])
    def test_wrong_size_datum_is_config_error(self, tmp_path, capsys, command):
        raw = tmp_path / "datum.bin"
        np.zeros(10).astype("<f8").tofile(raw)
        p = tmp_path / "short.cfg"
        p.write_text(
            "grid.L = 3.141592653589793\ngrid.N = 64\nmodel.alpha = 2.0\n"
            f"stepper.t_end = 0.01\ndatum.kind = from_file\ndatum.path = {raw}\n"
        )
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: datum file holds 10" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "symmetry"])
    def test_nan_datum_is_config_error(self, tmp_path, capsys, command):
        arr = 0.05 * np.sin(np.linspace(-np.pi, np.pi, 64, endpoint=False))
        arr[5] = np.nan
        arr[9] = np.inf
        raw = tmp_path / "datum.bin"
        arr.astype("<f8").tofile(raw)
        p = tmp_path / "nan.cfg"
        p.write_text(
            "grid.L = 3.141592653589793\ngrid.N = 64\nmodel.alpha = 2.0\n"
            f"stepper.t_end = 0.01\ndatum.kind = from_file\ndatum.path = {raw}\n"
        )
        out = tmp_path / "nanout"
        assert main([command, "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        assert "config error: datum file holds 2 non-finite values" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("values", [np.zeros(10), np.full(64, np.nan)], ids=["wrong-size", "non-finite"])
    def test_bad_datum_file_leaves_a_reused_out_as_it_was(self, cfg_file, tmp_path, capsys, values):
        # the datum file is checked with the config, before --out is touched
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
        earlier = {f.name: f.read_bytes() for f in out.iterdir()}
        raw = tmp_path / "datum.bin"
        values.astype("<f8").tofile(raw)
        p = write_cfg(tmp_path, f"grid.N = 64\ndatum.kind = from_file\ndatum.path = {raw}\n")
        capsys.readouterr()
        assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: datum file holds ") and err.count("\n") == 1, err
        assert {f.name: f.read_bytes() for f in out.iterdir()} == earlier

    def test_run_overflow_is_numerical_abort(self, tmp_path):
        p = overflowing(tmp_path)
        out = tmp_path / "bigout"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "--config", str(p), "--out", str(out)])
        assert code == EXIT_NUMERICAL
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "non_finite"
        assert not (out / "series.csv").exists()

    def test_run_with_a_huge_snapshot_budget_stops_at_its_threshold(self, tmp_path):
        # a million fixed steps at N = 32768 with a snapshot each: the run
        # stops at its threshold before its first step; a run streams its
        # snapshots and reserves no table for them, which at the step count
        # would take 244 GiB
        p = write_cfg(
            tmp_path,
            "grid.L = 3.141592653589793\ngrid.N = 32768\nmodel.mu = 1.0\nmodel.alpha = 1.5\n"
            "stepper.dt_init = 1e-9\nstepper.t_end = 1e-3\nstepper.adaptive = false\n"
            "stepper.blowup_threshold = 1e-6\ndatum.kind = random_rough\ndatum.s_base = 1.0\n"
            "outputs.snapshot_cadence = 1\n",
        )
        out = tmp_path / "budget"
        assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["termination"], manifest["steps"]) == ("blowup_threshold", 0)

    def test_out_of_memory_is_numerical_abort(self, cfg_file, tmp_path, monkeypatch, capsys):
        # a command that does not fit in memory exits 3, not 1, and a sweep
        # records it and runs on
        def evolve_or_fail(B0, params, cfg, keep=None):
            if params.alpha == 2.0:
                raise MemoryError("Unable to allocate 244. GiB")
            return evolve(B0, params, cfg, keep)

        monkeypatch.setattr(cli, "evolve", evolve_or_fail)
        assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "one")]) == EXIT_NUMERICAL
        assert "numerical abort: MemoryError" in capsys.readouterr().err
        other = write_cfg(tmp_path, RUN_CFG.replace("model.alpha = 2.0", "model.alpha = 1.5"), "other.cfg")
        sweep = write_cfg(tmp_path, f"{cfg_file}\n{other}\n", "sweep.txt")
        out = tmp_path / "sw"
        assert main(["run", "--sweep", str(sweep), "--out", str(out)]) == EXIT_NUMERICAL
        assert json.loads((out / "sweep.json").read_text()) == {
            "sweep_000": {"config": str(cfg_file), "exit": EXIT_NUMERICAL},
            "sweep_001": {"config": str(other), "exit": EXIT_OK},
        }

    def test_abort_after_streamed_snapshots_leaves_no_snapshot_file(self, tmp_path, monkeypatch):
        # the frames of a run go to a temporary file as it steps; an abort
        # that raises once a block of them is on disk removes that file, so
        # the out directory holds nothing (a MemoryError writes no manifest)
        p = write_cfg(tmp_path, RUN_CFG.replace("outputs.snapshot_cadence = 10", "outputs.snapshot_cadence = 1"))
        part = tmp_path / "out" / "snapshots.bin.part"
        streamed = []

        def evolve_then_fail(B0, params, cfg, observe):
            def observe_or_fail(*state):  # a snapshot at every state
                if len(streamed) == 40:
                    raise MemoryError("Unable to allocate 1. GiB")
                observe(*state)
                streamed.append(part.stat().st_size)

            return evolve(B0, params, cfg, observe_or_fail)

        monkeypatch.setattr(cli, "evolve", evolve_then_fail)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
        assert streamed[-1] == 32 * 128 * 8  # one block of frames was written
        assert list((tmp_path / "out").iterdir()) == []

    def test_run_cut_at_max_steps_is_numerical_abort(self, tmp_path, monkeypatch):
        # a run stopped by the step cap never reached t_end, so it is no pass
        p = capped_at_three_steps(tmp_path, monkeypatch)
        out = tmp_path / "cappedout"
        assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_NUMERICAL
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "max_steps" and manifest["steps"] == 3
        assert sorted(f.name for f in out.iterdir()) == ["manifest.json", "steps.csv"]
        assert read_csv(out / "steps.csv")[1].shape[1] == manifest["steps"]

    def test_run_on_ill_posed_config_is_numerical_abort(self, tmp_path):
        # without the guard the run reaches the threshold after 54 steps
        out = tmp_path / "illout"
        assert main(["run", "--config", str(ill_posed(tmp_path)), "--out", str(out)]) == EXIT_NUMERICAL
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "ill_posed" and manifest["steps"] == 22
        assert sorted(f.name for f in out.iterdir()) == ["manifest.json", "steps.csv"]
        header, values = read_csv(out / "steps.csv")
        G = values[header.index("G")]
        assert G.size == manifest["steps"]
        # the growth first exceeds the guard's 18 on the step that stopped the run
        assert G[-1] > 18.0 and np.all(G[:-1] <= 18.0)

    def test_run_stopped_at_blowup_threshold_passes(self, tmp_path):
        # with a finite threshold, reaching it is the run's purpose
        p = tmp_path / "blow.cfg"
        p.write_text(
            "grid.L = 6.0\ngrid.N = 256\nmodel.kind = transport\nmodel.alpha = 1.0\n"
            "datum.kind = paper_blowup\nstepper.blowup_threshold = 6.0\nstepper.dt_init = 1e-3\n"
        )
        out = tmp_path / "blowout"
        assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["termination"] == "blowup_threshold"
        assert (out / "series.csv").exists()

    def test_symmetry_overflow_is_numerical_abort(self, tmp_path):
        # the overflowing datum makes the mismatch of the two runs NaN
        p = overflowing(tmp_path)
        out = tmp_path / "symout"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["symmetry", "--config", str(p), "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert json.loads((out / "manifest.json").read_text())["termination"] == "non_finite"
        assert not (out / "symmetry.json").exists()

    def test_blowup_non_finite_is_numerical_abort(self, tmp_path, monkeypatch):
        real_run_blowup = cli.run_blowup

        def non_finite_run(grid, **kw):
            run, datum = real_run_blowup(grid, **kw)
            return replace(run, termination="non_finite"), datum

        monkeypatch.setattr(cli, "run_blowup", non_finite_run)
        p = tmp_path / "blow.cfg"
        p.write_text("grid.L = 6.0\ngrid.N = 256\n")
        out = tmp_path / "blowout"
        assert main(["blowup", "--config", str(p), "--out", str(out)]) == EXIT_NUMERICAL
        assert json.loads((out / "manifest.json").read_text())["termination"] == "non_finite"
        assert not (out / "blowup_report.json").exists()

    def test_blowup_fit_window_miss_writes_manifest(self, tmp_path, monkeypatch):
        p = fit_window_missed(tmp_path, monkeypatch)
        out = tmp_path / "blowout"
        assert main(["blowup", "--config", str(p), "--out", str(out)]) == EXIT_NUMERICAL
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "fit_window"
        assert manifest["steps"] > 0
        assert manifest["ladder"][0][1] == 0 and manifest["ladder"][-1][0] == 2048
        assert not (out / "blowup_report.json").exists()

    def test_blowup_times_its_characteristic_apart_from_evolve(self, tmp_path, monkeypatch):
        # the "characteristic" phase is the run's observer_s, the seconds it
        # spent in its characteristic, taken out of "evolve"
        real_run_blowup, runs = cli.run_blowup, []

        def kept_run(grid, **kw):
            runs.append(real_run_blowup(grid, **kw))
            return runs[-1]

        monkeypatch.setattr(cli, "run_blowup", kept_run)
        p = write_cfg(tmp_path, "grid.L = 6\ngrid.N = 2048\n")
        out = tmp_path / "blowout"
        assert main(["blowup", "--config", str(p), "--out", str(out)]) == EXIT_OK
        wall = json.loads((out / "manifest.json").read_text())["wall_s"]
        assert {"evolve", "characteristic", "report"} <= set(wall)
        assert all(wall[k] >= 0.0 for k in ("evolve", "characteristic", "report"))
        assert wall["characteristic"] == runs[0][0].observer_s > 0.0

    def test_blowup_run_to_t_end_is_numerical_abort(self, tmp_path):
        # at N = 1280 IF-RK4 steps past the predicted time to t_end = 1.1/w0
        # without max|Lambda B_x| crossing the threshold; its six gates would
        # all pass, but a run that never reached the singularity is no fit
        p = tmp_path / "blow.cfg"
        p.write_text("grid.L = 6\ngrid.N = 1280\n")
        out = tmp_path / "blowout"
        assert main(["blowup", "--config", str(p), "--out", str(out)]) == EXIT_NUMERICAL
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "t_end" and manifest["steps"] > 0
        assert "gates" not in manifest
        assert not (out / "blowup_report.json").exists() and not (out / "trajectory.csv").exists()

    def test_blowup_invariant_defect_is_tolerance_failure(self, tmp_path):
        # the run stops at the threshold and the fit passes its gates at
        # N = 1344, but B_x(X, t) drifts 3.1e-4 off 1, past the 1e-4
        # criterion 2 sets on it
        p = tmp_path / "blow.cfg"
        p.write_text("grid.L = 6\ngrid.N = 1344\nstepper.scheme = etdrk4\n")
        out = tmp_path / "blowout"
        assert main(["blowup", "--config", str(p), "--out", str(out)]) == EXIT_TOLERANCE
        report = json.loads((out / "blowup_report.json").read_text())
        assert report["max_bx_defect"] > 1e-4
        assert abs(report["slope"] + 1.0) <= 0.01 and report["T_rel_err"] <= 0.02
        assert failed_gates(out) == ["max_bx_defect"]

    def test_symmetry_mismatch_past_bound_is_tolerance_failure(self, cfg_file, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "scaling_symmetry_mismatch", lambda *args: 1e-3)
        out = tmp_path / "sym"
        assert main(["symmetry", "--config", str(cfg_file), "--out", str(out)]) == EXIT_TOLERANCE
        assert json.loads((out / "symmetry.json").read_text())["rel_l2_mismatch"] == 1e-3
        assert failed_gates(out) == ["rel_l2_mismatch"]

    @pytest.mark.parametrize(
        "gate, value",
        [("bernstein_derivative", 5.0), ("bernstein_linf", 5.0), ("norm_equivalence_min", 0.4),
         ("norm_equivalence_max", 2.5)],
    )
    def test_lp_ratio_past_bound_is_tolerance_failure(self, tmp_path, monkeypatch, gate, value):
        # one value lp reads is pushed past its bound: a Bernstein ratio past
        # 4, or one end of the norm-equivalence range out of [0.5, 2]
        real_bernstein, real_equivalence = lp.bernstein_check, lp.norm_equivalence_ratio

        def bernstein(grid, **kw):
            return tuple(replace(r, max_ratio=value) if r.name == gate else r for r in real_bernstein(grid, **kw))

        def equivalence(grid, **kw):
            lo, hi = real_equivalence(grid, **kw)
            return {"norm_equivalence_min": (value, hi), "norm_equivalence_max": (lo, value)}.get(gate, (lo, hi))

        monkeypatch.setattr(lp, "bernstein_check", bernstein)
        monkeypatch.setattr(lp, "norm_equivalence_ratio", equivalence)
        out = tmp_path / "lp"
        assert main(["lp", "--config", str(write_cfg(tmp_path, LP_CFG)), "--out", str(out)]) == EXIT_TOLERANCE
        report = json.loads((out / "lp_report.json").read_text())
        held = {r["name"]: r["max_ratio"] for r in report["bernstein"]}
        ne = report["norm_equivalence"]
        held.update(norm_equivalence_min=ne["min_ratio"], norm_equivalence_max=ne["max_ratio"])
        assert held[gate] == value
        assert failed_gates(out) == [gate]

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_blowup_reference_grid_passes_every_gate(self, tmp_path, scheme):
        # max_bx_defect reads 5.1e-5 (IF-RK4) and 3.3e-5 (ETDRK4) here
        p = tmp_path / "blow.cfg"
        p.write_text(f"grid.L = 6\ngrid.N = 2048\nstepper.scheme = {scheme}\n")
        out = tmp_path / "blowout"
        assert main(["blowup", "--config", str(p), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "blowup_report.json").read_text())
        assert max(report["max_bx_defect"], report["max_bxx_rel"]) <= 1e-4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["termination"] == "blowup_threshold" and manifest["steps"] > 0
        # the grid ladder, [N_rung, first step on it]: 512 from step 0, 1024
        # from step 1, 2048 from step 23 on both schemes
        assert manifest["ladder"] == [[512, 0], [1024, 1], [2048, 23]]

    def test_full_model_adaptive_run_matches_fixed_dt(self, tmp_path):
        # the default adaptive stepper on the full model must honour its
        # dispersive dt bound: without it this run exits 0 after 78 steps
        # with sup|Lambda B_x| in the thousands
        p = tmp_path / "full.cfg"
        p.write_text(
            "model.kind = full\nmodel.mu = 1\nmodel.alpha = 1.5\ngrid.N = 1024\ngrid.L = 6\n"
            "datum.kind = paper_blowup\nstepper.t_end = 0.05\n"
        )
        out = tmp_path / "fullout"
        assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["termination"] == "t_end"
        sidecar = json.loads((out / "snapshots.json").read_text())
        final = np.fromfile(out / "snapshots.bin", dtype="<f8").reshape(sidecar["shape"])[-1]
        assert sidecar["times"][-1] == pytest.approx(0.05, abs=1e-14)
        grid = GridSpec(6.0, 1024)
        f = SpectralField.from_phys(grid, np.fft.ifftshift(final))  # frames ascend from -L
        sup = np.max(np.abs(frac_laplacian(derivative(f), 1.0).phys))
        # the same config with stepper.adaptive = false, dt_init = 1e-5 (5000 steps)
        fixed_dt_sup = 2.5042552747401463
        assert abs(sup - fixed_dt_sup) <= 1e-10 * fixed_dt_sup

    @pytest.mark.parametrize("threshold", ["-1", "0", "-inf"])
    def test_nonpositive_blowup_threshold_is_config_error(self, tmp_path, capsys, threshold):
        p = write_cfg(tmp_path, f"grid.N = 64\nstepper.t_end = 0.01\nstepper.blowup_threshold = {threshold}\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: blowup_threshold must be positive" in capsys.readouterr().err

    def test_zero_snapshot_cadence_is_config_error(self, tmp_path):
        p = tmp_path / "cad.cfg"
        p.write_text(RUN_CFG.replace("outputs.snapshot_cadence = 10", "outputs.snapshot_cadence = 0"))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, text",
        [
            ("blowup", "grid.L = 2\n"),
            ("blowup", "grid.L = 6\ngrid.N = 96\n"),
            ("run", "grid.L = 2\ndatum.kind = paper_blowup\n"),
            ("symmetry", "grid.L = 2\ndatum.kind = paper_blowup\n"),
        ],
        ids=["blowup-L2", "blowup-N96", "run-L2", "symmetry-L2"],
    )
    def test_grid_without_reference_datum_is_config_error(self, tmp_path, capsys, command, text):
        # L = 2 is too short for exp(-x^4) sin(x) to decay, and at N = 96
        # the sampled datum misses B_x(0) = 1 by 2e-7
        p = tmp_path / "datum.cfg"
        p.write_text(text)
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command, passing, text",
        [
            ("blowup", "grid.L = 6\ngrid.N = 2048\n", "grid.L = 2\n"),
            ("run", RUN_CFG, "grid.L = 2\ndatum.kind = paper_blowup\n"),
            ("symmetry", RUN_CFG, "grid.L = 2\ndatum.kind = paper_blowup\n"),
            ("lp", LP_CFG, "grid.L = 12\ngrid.N = 8\n"),
        ],
        ids=["blowup-L2", "run-L2", "symmetry-L2", "lp-no-shell"],
    )
    def test_config_error_found_by_the_command_leaves_no_manifest(self, tmp_path, capsys, command, passing, text):
        # a grid that cannot hold the reference datum, or no lp shell, shows
        # when the command builds its inputs, before --out is claimed, so
        # every file of the earlier run stays as it was
        out = tmp_path / "o"
        assert main([command, "--config", str(write_cfg(tmp_path, passing, "pass.cfg")), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main([command, "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert {"manifest.json", *cli._COMMANDS[command][1]} - {"snapshots.bin.part"} <= set(before)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_abort_while_building_inputs_leaves_a_reused_out_as_it_was(self, tmp_path, capsys, monkeypatch):
        # the inputs are built before --out is claimed, so an abort there
        # removes none of the earlier run's files
        p = write_cfg(tmp_path, "grid.L = 6\ngrid.N = 2048\n")
        out = tmp_path / "o"
        assert main(["blowup", "--config", str(p), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        before = {f.name: f.read_bytes() for f in out.iterdir()}

        def out_of_memory(grid):
            raise MemoryError("Unable to allocate 1. GiB")

        monkeypatch.setattr(cli, "make_reference_datum", out_of_memory)
        assert main(["blowup", "--config", str(p), "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: MemoryError") and err.count("\n") == 1, err
        assert "blowup_report.json" in before
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_sweep_with_unusable_datum_grid(self, cfg_file, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("grid.L = 2\ndatum.kind = paper_blowup\n")
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(f"{bad}\n{cfg_file}\n")
        out = tmp_path / "sw"
        assert main(["run", "--sweep", str(sweep), "--out", str(out)]) == EXIT_CONFIG
        assert json.loads((out / "sweep.json").read_text()) == {
            "sweep_000": {"config": str(bad), "exit": EXIT_CONFIG},
            "sweep_001": {"config": str(cfg_file), "exit": EXIT_OK},
        }
        assert (out / "sweep_001" / "series.csv").is_file()

    def test_negative_seed_option_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "rough.cfg"
        p.write_text("grid.N = 64\ndatum.kind = random_rough\nstepper.t_end = 0.01\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o"), "--seed", "-1"]) == EXIT_CONFIG
        assert "config error: --seed" in capsys.readouterr().err

    def test_negative_datum_seed_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "rough.cfg"
        p.write_text("grid.N = 64\ndatum.kind = random_rough\ndatum.seed = -3\nstepper.t_end = 0.01\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(p)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: datum.seed" in capsys.readouterr().err

    def test_lp_grid_without_shells_is_config_error(self, tmp_path, capsys):
        # at L = 12, N = 8 the dealiased band ends below xi = 1: no shell q >= 1
        p = tmp_path / "coarse.cfg"
        p.write_text("grid.L = 12\ngrid.N = 8\n")
        assert main(["lp", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    def test_seed_option_is_echoed_and_the_echo_reproduces_the_run(self, tmp_path):
        # --seed stands for a datum.seed line: the manifest's config echo
        # names it, and the echo run as a config without --seed writes the
        # same data; without its datum.seed line the data differ, so the
        # seed is what the echo carries (at lam = 3 the symmetry mismatch
        # is roundoff that depends on the datum)
        rough = write_cfg(tmp_path, RUN_CFG + "datum.kind = random_rough\nsymmetry.lam = 3\n", "rough.cfg")
        other = write_cfg(tmp_path, RUN_CFG.replace("model.alpha = 2.0", "model.alpha = 1.5")
                          + "datum.kind = random_rough\n", "other.cfg")
        sweep = write_cfg(tmp_path, f"{rough}\n{other}\n", "sweep.txt")
        assert main(["run", "--sweep", str(sweep), "--out", str(tmp_path / "sw"), "--seed", "7"]) == EXIT_OK
        runs = [("run", tmp_path / "sw" / f"sweep_{i:03d}", "series.csv") for i in range(2)]
        for command, data in (("run", "series.csv"), ("symmetry", "symmetry.json"), ("lp", "lp_report.json")):
            out = tmp_path / command
            assert main([command, "--config", str(rough), "--out", str(out), "--seed", "7"]) == EXIT_OK
            runs.append((command, out, data))
        for command, out, data in runs:
            echo = json.loads((out / "manifest.json").read_text())["config"]
            assert echo["datum.seed"] == "7"
            unseeded = {k: v for k, v in echo.items() if k != "datum.seed"}
            for name, config, same in (("replay", echo, True), ("unseeded", unseeded, False)):
                p = write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in config.items()), f"{name}.cfg")
                again = tmp_path / f"{name}_{out.name}"
                assert main([command, "--config", str(p), "--out", str(again)]) == EXIT_OK
                assert ((again / data).read_bytes() == (out / data).read_bytes()) == same, (out.name, name)

    @pytest.mark.parametrize(
        "argv",
        [
            lambda tmp: ["run", "--out", str(tmp / "o")],
            lambda tmp: ["run", "--sweep", str(tmp / "no.txt"), "--out", str(tmp / "o")],
            lambda tmp: ["run", "--sweep", str(write_cfg(tmp, "\n  \n", "sweep.txt")), "--out", str(tmp / "o")],
            lambda tmp: ["run", "--config", str(write_cfg(tmp, RUN_CFG)), "--out", str(tmp / "o"), "--seed", "-1"],
            lambda tmp: ["run", "--config", str(write_cfg(tmp, "grid.dealias = 0.5\n")), "--out", str(tmp / "o")],
            lambda tmp: ["run", "--config", str(write_cfg(tmp, "grid.N = many\n")), "--out", str(tmp / "o")],
            lambda tmp: [
                "run", "--config", str(write_cfg(tmp, f"datum.kind = from_file\ndatum.path = {tmp / 'no.bin'}\n")),
                "--out", str(tmp / "o"),
            ],
            lambda tmp: ["symmetry", "--config", str(wrong_size_datum(tmp)), "--out", str(tmp / "o")],
            lambda tmp: ["lp", "--config", str(write_cfg(tmp, "grid.L = 12\ngrid.N = 8\n")), "--out", str(tmp / "o")],
            # a symmetry.lam whose rescaled run overflows lam^alpha, or
            # scales dt_init to 0, fails before --out is made
            lambda tmp: [
                "symmetry", "--config", str(write_cfg(tmp, RUN_CFG + "symmetry.lam = 1e200\n")),
                "--out", str(tmp / "o"),
            ],
            lambda tmp: [
                "symmetry", "--config", str(write_cfg(tmp, RUN_CFG + "symmetry.lam = 1e-200\n")),
                "--out", str(tmp / "o"),
            ],
            # an --out that cannot be a directory fails before anything runs:
            # a sweep whose first run started would print a second line
            lambda tmp: ["run", "--config", str(write_cfg(tmp, RUN_CFG)), "--out", str(write_cfg(tmp, "", "taken"))],
            lambda tmp: ["selftest", "--out", str(write_cfg(tmp, "", "taken") / "x")],
            lambda tmp: ["run", "--config", str(write_cfg(tmp, RUN_CFG)), "--out", str(tmp / ("o" * 300))],
            lambda tmp: ["selftest", "--out", str(tmp / ("o" * 300))],
            lambda tmp: [
                "run", "--sweep", str(write_cfg(tmp, f"{write_cfg(tmp, RUN_CFG)}\n", "sweep.txt")),
                "--out", str(write_cfg(tmp, "", "taken")),
            ],
            # a directory where the command would write a file stays, and
            # so does every file of the earlier run
            lambda tmp: [
                "run", "--config", str(write_cfg(tmp, RUN_CFG)), "--out", str(out_holding_dir(tmp, "series.csv")),
            ],
            lambda tmp: [
                "run", "--config", str(write_cfg(tmp, RUN_CFG)), "--out", str(out_holding_dir(tmp, "manifest.json")),
            ],
            # selftest and a sweep claim their own file like any command
            lambda tmp: ["selftest", "--out", str(out_holding_dir(tmp, "selftest.json"))],
            lambda tmp: [
                "run", "--sweep", str(write_cfg(tmp, f"{write_cfg(tmp, RUN_CFG)}\n", "sweep.txt")),
                "--out", str(out_holding_dir(tmp, "sweep.json")),
            ],
        ],
        ids=[
            "no-config", "no-sweep-file", "empty-sweep", "negative-seed", "unknown-key", "bad-value",
            "missing-datum-path", "wrong-size-datum", "lp-no-shell", "symmetry-lam-1e200", "symmetry-lam-1e-200",
            "run-out-is-a-file", "selftest-out-under-a-file", "out-name-too-long", "selftest-out-name-too-long",
            "sweep-out-is-a-file", "out-holds-series-csv-dir", "out-holds-manifest-json-dir",
            "selftest-out-holds-selftest-json-dir", "sweep-out-holds-sweep-json-dir",
        ],
    )
    def test_every_config_error_is_one_stderr_line(self, tmp_path, capsys, argv):
        args = argv(tmp_path)
        before = sorted((p, p.is_dir()) for p in tmp_path.rglob("*"))
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        # a config error changes nothing it finds: no path goes, none changes
        # kind, and none is made
        assert sorted((p, p.is_dir()) for p in tmp_path.rglob("*")) == before
        # and a sweep stops before its first run
        assert not list(tmp_path.rglob("sweep_000"))

    @pytest.mark.parametrize(
        "command, setup, code, termination, keys, phases",
        [
            (
                "run", lambda tmp, mp: write_cfg(tmp, RUN_CFG), EXIT_OK, "t_end", {"termination", "steps"},
                ["evolve", "snapshots", "outputs"],
            ),
            (
                "run", capped_at_three_steps, EXIT_NUMERICAL, "max_steps", {"termination", "steps"},
                ["evolve", "snapshots"],
            ),
            ("run", overflowing, EXIT_NUMERICAL, "non_finite", {"termination", "steps"}, ["evolve", "snapshots"]),
            ("run", ill_posed, EXIT_NUMERICAL, "ill_posed", {"termination", "steps"}, ["evolve", "snapshots"]),
            ("run", collapsing, EXIT_NUMERICAL, "cfl_collapse", {"termination", "steps"}, ["evolve", "snapshots"]),
            # a collapse before the first step is no blowup, threshold or not
            (
                "run", lambda tmp, mp: collapsing(tmp, threshold="stepper.blowup_threshold = 1e30\n"),
                EXIT_NUMERICAL, "cfl_collapse", {"termination", "steps"}, ["evolve", "snapshots"],
            ),
            (
                "run", lambda tmp, mp: collapsing(tmp, threshold="stepper.blowup_threshold = 1e30\n", norm="1e10"),
                EXIT_OK, "cfl_collapse", {"termination", "steps"}, ["evolve", "snapshots", "outputs"],
            ),
            (
                "blowup",
                lambda tmp, mp: write_cfg(tmp, "grid.L = 6\ngrid.N = 2048\n"),
                EXIT_OK,
                "blowup_threshold",
                {"termination", "steps", "ladder", "report", "gates"},
                ["evolve", "characteristic", "report"],
            ),
            (
                "blowup", fit_window_missed, EXIT_NUMERICAL, "fit_window", {"termination", "steps", "ladder"},
                ["evolve", "characteristic"],
            ),
            (
                "symmetry", lambda tmp, mp: write_cfg(tmp, RUN_CFG), EXIT_OK, None, {"rel_l2_mismatch", "gates"},
                ["evolve"],
            ),
            ("symmetry", overflowing, EXIT_NUMERICAL, "non_finite", {"termination"}, ["evolve"]),
            ("lp", lambda tmp, mp: write_cfg(tmp, LP_CFG), EXIT_OK, None, {"lp", "gates"}, ["lp"]),
        ],
        ids=[
            "run-t_end", "run-max_steps", "run-non_finite", "run-ill_posed", "run-cfl_collapse",
            "run-cfl_collapse-threshold", "run-cfl_collapse-after-steps-threshold", "blowup-pass", "blowup-fit_window",
            "symmetry-pass", "symmetry-non_finite", "lp",
        ],
    )
    def test_every_exit_path_writes_manifest(
        self, tmp_path, monkeypatch, command, setup, code, termination, keys, phases
    ):
        # wall_s holds the wall seconds of each phase that ran on the exit
        # path; "snapshots" is the time a run spent in its observer, which
        # streams its snapshots, so a failing run has it too;
        # "characteristic" is the time a blowup's run spent in its
        # characteristic, integrated as the run stepped
        p = setup(tmp_path, monkeypatch)
        out = tmp_path / "o"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([command, "--config", str(p), "--out", str(out)]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"version", "numpy", "git_revision", "scheme", "config", "wall_s"} | keys
        assert manifest["config"] == RunConfig.from_file(p).raw
        assert manifest["version"] == cli.__version__ and manifest["numpy"] == np.__version__
        assert manifest.get("termination") == termination
        if "gates" in keys:
            assert all(g["passed"] for g in manifest["gates"])
        wall = manifest["wall_s"]
        assert sorted(wall) == sorted(phases)
        assert all(isinstance(v, float) and 0.0 <= v < 600.0 for v in wall.values())
        if command == "run":
            # a failing run leaves no series or snapshot file, temporary or final
            files = ["manifest.json", "steps.csv"]
            if code == EXIT_OK:
                files += ["series.csv", "snapshots.bin", "snapshots.json"]
            assert sorted(f.name for f in out.iterdir()) == sorted(files)

    @pytest.mark.parametrize(
        "command, passing, aborting, termination",
        [
            ("run", lambda tmp: write_cfg(tmp, RUN_CFG, "pass.cfg"), collapsing, "cfl_collapse"),
            (
                "blowup", lambda tmp: write_cfg(tmp, "grid.L = 6\ngrid.N = 2048\n", "pass.cfg"),
                lambda tmp: write_cfg(tmp, "grid.L = 6\ngrid.N = 1280\nstepper.scheme = etdrk4\n"), "t_end",
            ),
            ("symmetry", lambda tmp: write_cfg(tmp, RUN_CFG, "pass.cfg"), overflowing, "non_finite"),
        ],
        ids=["run", "blowup", "symmetry"],
    )
    def test_abort_into_a_reused_out_leaves_what_it_leaves_in_a_fresh_one(
        self, tmp_path, command, passing, aborting, termination
    ):
        # the abort after a passing run first removes the files the
        # command names, and leaves notes.txt, which no command writes
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main([command, "--config", str(passing(tmp_path)), "--out", str(reused)]) == EXIT_OK
        written = {f.name for f in reused.iterdir()}
        (reused / "notes.txt").write_text("kept\n")
        p = aborting(tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            for out in (fresh, reused):
                assert main([command, "--config", str(p), "--out", str(out)]) == EXIT_NUMERICAL
        assert json.loads((reused / "manifest.json").read_text())["termination"] == termination
        assert sorted(f.name for f in reused.iterdir()) == sorted(["notes.txt", *(f.name for f in fresh.iterdir())])
        assert (reused / "notes.txt").read_text() == "kept\n"
        # the passing run wrote manifest.json and every file its command
        # names, all but run's temporary snapshots.bin.part
        assert written == {"manifest.json", *cli._COMMANDS[command][1]} - {"snapshots.bin.part"}

    def test_out_of_memory_after_a_pass_leaves_no_earlier_output(self, cfg_file, tmp_path, monkeypatch):
        # a MemoryError writes no manifest.json, so the passing run's one,
        # which reads t_end, must not stay behind with its data files
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK

        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 1. GiB")

        monkeypatch.setattr(cli, "evolve", out_of_memory)
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == EXIT_NUMERICAL
        assert list(out.iterdir()) == []

    @pytest.fixture
    def fresh_revision(self):
        cli._git_revision.cache_clear()
        yield
        cli._git_revision.cache_clear()

    def test_manifest_records_scheme_and_git_revision(self, tmp_path, monkeypatch, fresh_revision):
        # git is asked once per process, however many runs write a manifest
        calls = []
        real_run = subprocess.run

        def counting_run(cmd, **kwargs):
            calls.append(cmd)
            return real_run(cmd, **kwargs)

        monkeypatch.setattr(cli.subprocess, "run", counting_run)
        p = write_cfg(tmp_path, RUN_CFG + "stepper.scheme = etdrk4\n")
        for name in ("a", "b"):
            assert main(["run", "--config", str(p), "--out", str(tmp_path / name)]) == EXIT_OK
        assert calls == [["git", "rev-parse", "HEAD"]]
        for name in ("a", "b"):
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            assert manifest["scheme"] == "etdrk4"
            rev = manifest["git_revision"]
            assert rev == "unavailable" or re.fullmatch("[0-9a-f]{40}", rev)

    @pytest.mark.parametrize("outcome", ["no git", "not a checkout"])
    def test_git_revision_unavailable_when_git_fails(self, monkeypatch, fresh_revision, outcome):
        def failing_run(cmd, **kwargs):
            if outcome == "no git":
                raise FileNotFoundError(cmd[0])
            return subprocess.CompletedProcess(cmd, 128, "", "fatal: not a git repository\n")

        monkeypatch.setattr(cli.subprocess, "run", failing_run)
        assert cli._git_revision() == "unavailable"
