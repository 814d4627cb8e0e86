"""The benchmark's four workloads, their seeded inputs and correctness gates.

Every pass calls the library through module attributes (``blowup.run_blowup``,
``cli.main``, ...) so that the tracer's wrappers, when installed, see each
call.  Gate thresholds are copied from ``cmd_blowup`` and from
``tests/test_acceptance.py``; a failed gate is recorded, never raised, so a
failing pass still reports its timings.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from emhd1d import blowup, cli, diagnostics, lp, solver, spectral
from emhd1d.solver import ModelParams, StepperConfig
from emhd1d.spectral import GridSpec, SpectralField

# Two translated blowup runs agree on rel_T_err to ~1e-11 at N = 4096; a
# difference above this means the translation was not a symmetry.
TRANSLATION_TOL = 1e-9


@dataclass
class PassResult:
    steps: int
    gates: list[tuple[str, bool]] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)

    def gate(self, name: str, ok: bool) -> None:
        self.gates.append((name, bool(ok)))


@dataclass
class ProbeInputs:
    """Field the kernel probes run on, at the workload's N, and the model
    and step size the stepper probes use."""

    field: SpectralField
    model: ModelParams
    dt: float


class Blowup:
    """``cmd_blowup``'s pipeline through library calls, reference datum
    translated by a whole number of grid nodes chosen from the seed."""

    def __init__(self, scheme: str, smoke: bool):
        self.scheme = scheme
        self.n = 2048 if smoke else 4096

    def setup(self, seed: int) -> None:
        self.grid = GridSpec(6.0, self.n)
        self.base = blowup.make_reference_datum(self.grid)
        self.rng = np.random.default_rng(seed)
        self.first_rel_t: float | None = None

    def translated_datum(self, k: int) -> blowup.BlowupDatum:
        """Reference datum rolled by k nodes: an exact symmetry of the
        periodic grid, so the Riccati answer is unchanged to roundoff."""
        g = self.grid
        B0 = SpectralField.from_phys(g, np.roll(self.base.B0.phys, k))
        L = g.half_length
        x0 = (self.base.x0 + k * g.dx + L) % (2.0 * L) - L
        lam_bx = spectral.frac_laplacian(spectral.derivative(B0), 1.0)
        d = blowup.BlowupDatum(B0=B0, x0=x0, w0=float(spectral.evaluate_at(lam_bx, x0)))
        d.validate()
        return d

    def run_pass(self, tracer) -> PassResult:
        k = int(self.rng.integers(0, self.n))
        with tracer.span("blowup.datum"):
            datum = self.translated_datum(k)
        run, d = blowup.run_blowup(self.grid, datum=datum, scheme=self.scheme)
        states = blowup.advect_trajectory(run, d.x0)
        w0 = d.w0
        res = PassResult(steps=len(run.step_times) - 1)
        try:
            t_est, slope, resid = blowup.measure_blowup_time(states, w0)
        except blowup.FitWindowError:
            res.gate("fit_window", False)
            return res
        rep = blowup.riccati_invariant_report(run, states, t_max=0.8 / w0)
        t_pred = blowup.predict_blowup_time(d)
        w0_pv = blowup.pv_blowup_coefficient()
        rel_t = abs(t_est - t_pred) / t_pred
        res.gate("slope", abs(slope + 1.0) <= 0.01)
        res.gate("fit_residual", resid <= 1e-3)
        res.gate("rel_T", rel_t <= 0.02)
        res.gate("w0_vs_pv", abs(w0 - w0_pv) / abs(w0_pv) <= 1e-4)
        res.gate("max_bx_defect", rep.max_bx_defect <= 1e-4)
        res.gate("max_bxx_rel", rep.max_bxx_rel <= 1e-4)
        if self.first_rel_t is None:
            self.first_rel_t = rel_t
        else:
            res.gate("translation_symmetry", abs(rel_t - self.first_rel_t) <= TRANSLATION_TOL)
        res.values = {
            "rel_T_err": rel_t,
            "slope_err": abs(slope + 1.0),
            "stored_fields_mb": (run.lam_b.nbytes + run.lam_b_dot.nbytes) / 1e6,
        }
        return res

    def probe_inputs(self) -> ProbeInputs:
        return ProbeInputs(self.base.B0, ModelParams(kind="transport", mu=1.0, alpha=1.0), 1e-4)


CLI_CONFIG = """\
grid.L = 3.141592653589793
grid.N = {n}
model.kind = full
model.mu = 1.0
model.alpha = 1.5
stepper.dt_init = 2e-5
stepper.t_end = {t_end}
stepper.adaptive = false
datum.kind = random_rough
datum.s_base = 1.0
outputs.snapshot_cadence = 2
diagnostics.s_list = 0, 1, 2
"""


class CliRun:
    """In-process ``emhd1d run`` on the full model from a rough datum whose
    seed is the benchmark seed."""

    def __init__(self, out: Path, smoke: bool):
        self.n, self.t_end, self.steps = (256, 2e-3, 100) if smoke else (2048, 0.02, 1000)
        self.dir = out / "cli_run_full"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "run.cfg"
        self.config.write_text(CLI_CONFIG.format(n=self.n, t_end=self.t_end))
        self.out = self.dir / "out"
        cfg = cli.RunConfig.from_file(self.config)
        self.B0 = cfg.datum(cfg.grid(), seed)
        self.series_digest: str | None = None

    def run_pass(self, tracer) -> PassResult:
        shutil.rmtree(self.out, ignore_errors=True)
        code = cli.main(
            ["run", "--config", str(self.config), "--out", str(self.out), "--seed", str(self.seed)]
        )
        res = PassResult(steps=0)
        res.gate("exit_ok", code == cli.EXIT_OK)
        if code != cli.EXIT_OK:
            return res
        manifest = json.loads((self.out / "manifest.json").read_text())
        res.steps = int(manifest["steps"])
        res.gate("termination_t_end", manifest["termination"] == "t_end")
        res.gate("step_count", res.steps == self.steps)
        series = (self.out / "series.csv").read_bytes()
        rows = list(csv.reader(io.StringIO(series.decode())))
        res.gate("series_finite", all(math.isfinite(float(v)) for row in rows[1:] for v in row))
        shape = json.loads((self.out / "snapshots.json").read_text())["shape"]
        size = (self.out / "snapshots.bin").stat().st_size
        res.gate("snapshot_size", shape[1] == self.n and size == shape[0] * shape[1] * 8)
        digest = hashlib.sha256(series).hexdigest()
        if self.series_digest is None:
            self.series_digest = digest
        else:
            res.gate("series_reproducible", digest == self.series_digest)
        res.values["bytes_written"] = sum(p.stat().st_size for p in self.out.iterdir())
        return res

    def probe_inputs(self) -> ProbeInputs:
        return ProbeInputs(self.B0, ModelParams(kind="full", mu=1.0, alpha=1.5), 2e-5)


def small_datum(grid: GridSpec, amp: float = 0.05) -> SpectralField:
    return SpectralField.from_function(grid, lambda x: amp * (np.sin(x) + 0.4 * np.sin(3 * x)))


class VerifySmallN:
    """Library bodies of acceptance criteria 3, 4, 5, 7 and 8 at N <= 512."""

    def __init__(self, out: Path, smoke: bool):
        self.n = 256

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.grid = GridSpec(np.pi, self.n)
        self.B0 = small_datum(self.grid)

    def run_pass(self, tracer) -> PassResult:
        res = PassResult(steps=0)

        # criterion 3: operator identities
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.cmd_selftest()
        elapsed = time.perf_counter() - t0
        res.gate("selftest_exit", code == cli.EXIT_OK)
        res.gate("selftest_time", elapsed < 10.0)

        # criterion 4: scaling symmetry, alpha = 1 and 2
        lam = 2.0
        for alpha in (1.0, 2.0):
            grid_b = GridSpec(np.pi / lam, self.n)
            B_b = SpectralField.from_phys(grid_b, lam ** (alpha - 2.0) * self.B0.phys)
            p = ModelParams(kind="full", mu=1.0, alpha=alpha)
            t_b, n = 0.05, 50
            cfg_b = StepperConfig(dt_init=t_b / n, t_end=t_b, adaptive=False, snapshot_cadence=10**9)
            cfg_a = StepperConfig(
                dt_init=lam**alpha * t_b / n, t_end=lam**alpha * t_b, adaptive=False,
                snapshot_cadence=10**9,
            )
            run_a = solver.evolve(self.B0, p, cfg_a)
            run_b = solver.evolve(B_b, p, cfg_b)
            res.steps += len(run_a.step_times) + len(run_b.step_times) - 2
            ref = lam ** (alpha - 2.0) * run_a.final.phys
            rel = float(np.linalg.norm(run_b.final.phys - ref) / np.linalg.norm(ref))
            res.gate(f"symmetry_alpha{alpha:g}", rel <= 1e-6)

        # criterion 5: flux identity
        p = ModelParams(kind="full", mu=1.0, alpha=1.5)
        _, _, ratio = diagnostics.flux_defect_ratio(
            spectral.remove_mean(self.B0), p, s=1.0, dt=1e-3
        )
        res.gate("flux_ratio", 3.5 <= ratio <= 4.5)

        # criterion 7: Picard limit against a fine-dt evolve
        p = ModelParams(kind="full", mu=1.0, alpha=2.0)
        cfg = StepperConfig(dt_init=1e-3, t_end=0.1, adaptive=False)
        pic = solver.picard_solve(self.B0, p, cfg)
        gaps = np.array(pic.gap_history)
        fine = StepperConfig(dt_init=2.5e-4, t_end=0.1, adaptive=False, snapshot_cadence=10**9)
        ref_run = solver.evolve(self.B0, p, fine)
        res.steps += len(pic.iterates) * (len(pic.series.step_times) - 1)
        res.steps += len(ref_run.step_times) - 1
        diff = float(np.sqrt(2 * np.pi * np.sum(np.abs(pic.series.final.coef - ref_run.final.coef) ** 2)))
        res.gate("picard_converged", pic.converged)
        res.gate("picard_geometric", bool(np.all(gaps[1:] < 0.5 * gaps[:-1])))
        res.gate("picard_vs_fine", diff <= 1e-6)

        # criterion 8: bounded-ratio reports, seeded by the benchmark seed
        grid = GridSpec(np.pi, 512)
        b1, b2 = lp.bernstein_check(grid, trials=50, seed=self.seed)
        c1, c2 = lp.commutator_check(grid, trials=20, seed=self.seed)
        ratios = [b1.max_ratio, b2.max_ratio, c1.max_ratio, c2.max_ratio]
        res.gate("ratios_finite_positive", all(np.isfinite(r) and r > 0 for r in ratios))
        res.gate("bernstein_bounded", b1.max_ratio <= 4.0 and b2.max_ratio <= 4.0)
        return res

    def probe_inputs(self) -> ProbeInputs:
        return ProbeInputs(self.B0, ModelParams(kind="full", mu=1.0, alpha=2.0), 1e-3)


WORKLOADS = {
    "blowup_ifrk4": lambda out, smoke: Blowup("ifrk4", smoke),
    "blowup_etdrk4": lambda out, smoke: Blowup("etdrk4", smoke),
    "cli_run_full": CliRun,
    "verify_small_n": VerifySmallN,
}


def _median_us(fn, budget_s: float) -> float:
    fn()  # warm-up: plan caches, lazily built grid tables
    times: list[float] = []
    t_end = time.perf_counter() + budget_s
    while len(times) < 5 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e6


def run_probes(inp: ProbeInputs, budget_s: float) -> dict[str, float]:
    """Warmed-up medians of single public kernel calls, in microseconds.

    Each probe repeats its call for ``budget_s`` seconds (at least 5 times).
    The ETDRK4 step includes its contour-coefficient rebuild, because every
    step of ``evolve`` pays it.
    """
    B, g, p, dt = inp.field, inp.field.grid, inp.model, inp.dt
    transport = ModelParams(kind="transport", mu=1.0, alpha=1.0)
    full = ModelParams(kind="full", mu=1.0, alpha=1.5)
    ifrk4 = StepperConfig(scheme="ifrk4", dt_init=dt)
    etdrk4 = StepperConfig(scheme="etdrk4", dt_init=dt)
    calls = {
        "spectral.fft_pair_us": lambda: g.to_coef(g.to_phys(B.coef)),
        "solver.rhs_transport_us": lambda: solver.rhs(B, transport),
        "solver.rhs_full_us": lambda: solver.rhs(B, full),
        "solver.step_ifrk4_us": lambda: solver.step(B, 0.0, dt, p, ifrk4),
        "solver.step_etdrk4_us": lambda: solver.step(B, 0.0, dt, p, etdrk4),
        "diagnostics.flux_decomposition_us": lambda: diagnostics.flux_decomposition(B, 1.0, full),
    }
    return {name: _median_us(fn, budget_s) for name, fn in calls.items()}
