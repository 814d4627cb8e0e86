"""Command-line front end.

    emhd1d <run|blowup|symmetry|lp|selftest> --config PATH [--sweep PATH]
           [--out DIR] [--seed U64]

Config files are flat ``section.key = value`` text (blank lines and ``#``
comments ignored).  Exit codes: 0 pass, 1 tolerance failure, 2 config error,
3 numerical abort.  A ``run`` passes only if it reaches t_end or, with a
finite ``stepper.blowup_threshold``, stops at the threshold or at CFL
collapse; any other termination (a non-finite field, max_steps, or CFL
collapse with no threshold) writes only manifest.json and exits 3.
``--sweep`` takes a file listing one config path per line and runs them one
after another in that order.  Run i writes to OUT/sweep_<i:03d>,
OUT/sweep.json maps each run directory to its config path and exit code,
and the sweep exits with the most severe code (0 < 1 < 2 < 3).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .blowup import (
    DatumError, FitWindowError, advect_trajectory, make_reference_datum, riccati_verdict, run_blowup
)
from .diagnostics import norm_series, rough_datum
from .gates import Gate
from .lp import cutoffs_for, lp_verdict
from .solver import ModelParams, StepperConfig, evolve, scaling_symmetry_verdict
from .spectral import (
    GridSpec,
    SpectralField,
    derivative,
    frac_laplacian,
    hilbert,
    product,
    riesz_potential,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# spellings a boolean config value may take, matched case-insensitively
_BOOLS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``dotted.key = value`` lines into a string dict; a key
    may appear once."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, val = (p.strip() for p in line.split("=", 1))
        if not key or not val:
            raise ConfigError(f"line {ln}: empty key or value")
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        out[key] = val
    return out


@dataclass
class RunConfig:
    """Typed view of a config file with defaults for every key."""

    grid_L: float = 6.0
    grid_N: int = 256
    grid_dealias: float = 2.0 / 3.0
    model_kind: str = "full"
    model_mu: float = 1.0
    model_alpha: float = 2.0
    stepper_scheme: str = "ifrk4"
    stepper_dt_init: float = 1e-3
    stepper_cfl_safety: float = 0.5
    stepper_t_end: float = 1.0
    stepper_blowup_threshold: float = math.inf
    stepper_adaptive: bool = True
    datum_kind: str = "gaussian_packet"
    datum_s_base: float = 0.5
    datum_norm: float = 0.05
    datum_seed: int = 0
    datum_path: str = ""
    outputs_snapshot_cadence: int = 10
    diagnostics_s_list: tuple[float, ...] = (1.0,)
    symmetry_lam: float = 2.0
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        kv = parse_config_text(p.read_text())
        cfg = cls(raw=dict(kv))
        # key "section.name" <-> field "section_name"; the default fixes the type
        by_key = {f.name.replace("_", ".", 1): f for f in fields(cls) if f.name != "raw"}
        for key, val in kv.items():
            if key not in by_key:
                raise ConfigError(f"unknown config key: {key}")
            default = by_key[key].default
            try:
                if isinstance(default, bool):
                    value = _BOOLS[val.lower()]
                elif isinstance(default, tuple):
                    value = tuple(float(v) for v in val.split(","))
                else:
                    value = type(default)(val)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {val!r}") from exc
            setattr(cfg, by_key[key].name, value)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.datum_kind not in ("paper_blowup", "gaussian_packet", "random_rough", "from_file"):
            raise ConfigError(f"unknown datum.kind: {self.datum_kind}")
        if self.datum_kind == "from_file" and not Path(self.datum_path).is_file():
            raise ConfigError(f"datum.path not found: {self.datum_path}")
        if self.datum_seed < 0:
            raise ConfigError(f"datum.seed must be non-negative, got {self.datum_seed}")
        if not (math.isfinite(self.symmetry_lam) and self.symmetry_lam > 0):
            raise ConfigError(f"symmetry.lam must be positive and finite, got {self.symmetry_lam}")
        for key in ("datum.norm", "datum.s_base", "diagnostics.s_list"):
            val = getattr(self, key.replace(".", "_"))
            if not np.all(np.isfinite(val)):
                raise ConfigError(f"{key} must be finite, got {val}")
        try:
            self.grid()
            self.model()
            self.stepper()
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_L, self.grid_N, self.grid_dealias)

    def model(self) -> ModelParams:
        return ModelParams(kind=self.model_kind, mu=self.model_mu, alpha=self.model_alpha)

    def stepper(self) -> StepperConfig:
        return StepperConfig(
            scheme=self.stepper_scheme,
            dt_init=self.stepper_dt_init,
            cfl_safety=self.stepper_cfl_safety,
            t_end=self.stepper_t_end,
            blowup_threshold=self.stepper_blowup_threshold,
            adaptive=self.stepper_adaptive,
            snapshot_cadence=self.outputs_snapshot_cadence,
        )

    def datum(self, grid: GridSpec, seed: int | None = None) -> SpectralField:
        sd = self.datum_seed if seed is None else seed
        if self.datum_kind == "paper_blowup":
            return make_reference_datum(grid).B0
        if self.datum_kind == "gaussian_packet":
            return SpectralField.from_function(grid, lambda x: np.exp(-(x**2)) * np.sin(3.0 * x))
        if self.datum_kind == "random_rough":
            return rough_datum(grid, self.datum_s_base, norm=self.datum_norm, seed=sd)
        arr = np.fromfile(self.datum_path, dtype="<f8")
        if arr.shape != (grid.n_modes,):
            raise ConfigError(
                f"datum file holds {arr.size} float64 values, grid needs {grid.n_modes}"
            )
        bad = arr.size - int(np.count_nonzero(np.isfinite(arr)))
        if bad:
            raise ConfigError(f"datum file holds {bad} non-finite values")
        # the file is ascending in x from -L; phys follows grid.nodes
        return SpectralField.from_phys(grid, np.fft.ifftshift(arr))


@functools.cache
def _git_revision() -> str:
    """``git rev-parse HEAD`` of the checkout holding this package, asked
    once per process; "unavailable" outside a checkout or when git fails."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _write_manifest(out: Path, cfg: RunConfig, extra: dict) -> None:
    manifest = {
        "version": __version__,
        "numpy": np.__version__,
        "git_revision": _git_revision(),
        "scheme": cfg.stepper_scheme,
        "config": cfg.raw,
        **extra,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


class _PhaseClock:
    """Wall seconds of a command's phases, each timed from the end of the
    one before; ``wall`` holds only the phases that have finished."""

    def __init__(self) -> None:
        self.wall: dict[str, float] = {}
        self._last = time.perf_counter()

    def done(self, phase: str) -> None:
        now = time.perf_counter()
        self.wall[phase] = now - self._last
        self._last = now


def _write_snapshots(out: Path, run) -> None:
    """Raw little-endian float64 frames, each ascending in x from -L, plus a
    JSON sidecar with the index."""
    with (out / "snapshots.bin").open("wb") as fh:
        for i in range(0, len(run.coefs), 32):  # 32 frames a transform: no (n, N) array
            frames = np.fft.fftshift(run.grid.to_phys(run.coefs[i : i + 32]), axes=-1)
            frames.astype("<f8", copy=False).tofile(fh)
    sidecar = {
        "dtype": "<f8",
        "shape": [len(run.times), run.grid.n_modes],
        "grid": {"L": run.grid.half_length, "N": run.grid.n_modes},
        "times": [float(t) for t in run.times],
    }
    (out / "snapshots.json").write_text(json.dumps(sidecar, indent=2) + "\n")


def cmd_run(cfg: RunConfig, out: Path, seed: int | None) -> tuple[int, dict]:
    grid = cfg.grid()
    B0 = cfg.datum(grid, seed)
    clock = _PhaseClock()
    run = evolve(B0, cfg.model(), cfg.stepper())
    clock.done("evolve")
    record = {"termination": run.termination, "steps": len(run.step_times) - 1, "wall_s": clock.wall}
    # a run that seeks a blowup may end at its threshold or when dt collapses
    finished = ("t_end",)
    if math.isfinite(run.config.blowup_threshold):
        finished += ("blowup_threshold", "cfl_collapse")
    if run.termination not in finished:
        return EXIT_NUMERICAL, record
    ns = norm_series(run, list(cfg.diagnostics_s_list))
    with (out / "series.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        header = ["t"]
        for s in ns.s_list:
            header += [f"hs_{s:g}", f"hdiss_{s:g}", f"budget_{s:g}"]
        w.writerow(header)
        for j, t in enumerate(ns.times):
            row = [f"{t:.17g}"]
            for i in range(len(ns.s_list)):
                row += [f"{ns.hs[i, j]:.17g}", f"{ns.hs_diss[i, j]:.17g}", f"{ns.budget[i, j]:.17g}"]
            w.writerow(row)
    clock.done("diagnostics")
    _write_snapshots(out, run)
    clock.done("snapshots")
    return EXIT_OK, record


def _rungs(run) -> list[list[int]]:
    """[N_rung, first step taken on it] of each grid-ladder rung a run used."""
    n_modes = run.diagnostics["n_modes"]
    first = np.flatnonzero(np.diff(n_modes, prepend=0))
    return [[int(n_modes[i]), int(i)] for i in first]


def _verdict(gates: list[Gate], record: dict) -> tuple[int, dict]:
    """Exit 0 if every gate of a harness passed, else 1; the manifest record
    gets one row per gate, so an exit 1 names the gates that failed."""
    record["gates"] = [g._asdict() for g in gates]
    return (EXIT_OK if all(g.passed for g in gates) else EXIT_TOLERANCE), record


def cmd_blowup(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    """Riccati blowup harness with the reference configuration forced."""
    clock = _PhaseClock()
    run, datum = run_blowup(cfg.grid(), scheme=cfg.stepper_scheme)
    clock.done("evolve")
    record = {
        "termination": run.termination, "steps": len(run.step_times) - 1, "ladder": _rungs(run),
        "wall_s": clock.wall,
    }
    if run.termination == "non_finite":
        return EXIT_NUMERICAL, record
    traj = advect_trajectory(run, datum.x0)
    clock.done("trajectory")
    try:
        report, gates = riccati_verdict(run, datum, traj)
    except FitWindowError:
        record["termination"] = "fit_window"
        return EXIT_NUMERICAL, record
    (out / "blowup_report.json").write_text(json.dumps(report, indent=2) + "\n")
    with (out / "trajectory.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "X", "bx", "bxx", "w", "inv_w"])
        for row in zip(traj.t, traj.X, traj.bx, traj.bxx, traj.w, 1.0 / traj.w):
            w.writerow([f"{v:.17g}" for v in row])
    clock.done("report")
    record["report"] = report
    return _verdict(gates, record)


def cmd_symmetry(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    """Discrete check of the rescaling invariance B -> lam^(a-2) B(lam x, lam^a t).

    Run A uses the configured grid and datum with a fixed dt; run B the
    rescaled datum on the grid contracted by lam (see
    ``scaling_symmetry_mismatch``).  A non-finite mismatch means a run
    overflowed: a numerical abort, exit 3.
    """
    n_steps = max(1, int(round(cfg.stepper_t_end / cfg.stepper_dt_init)))
    B = cfg.datum(cfg.grid())
    clock = _PhaseClock()
    report, gates = scaling_symmetry_verdict(
        B, cfg.model(), cfg.symmetry_lam, cfg.stepper_t_end, n_steps, cfg.stepper_scheme
    )
    clock.done("evolve")  # both runs
    rel = report["rel_l2_mismatch"]
    if not math.isfinite(rel):
        return EXIT_NUMERICAL, {"termination": "non_finite", "wall_s": clock.wall}
    (out / "symmetry.json").write_text(json.dumps(report, indent=2) + "\n")
    return _verdict(gates, {"rel_l2_mismatch": rel, "wall_s": clock.wall})


def cmd_lp(cfg: RunConfig, out: Path, seed: int | None) -> tuple[int, dict]:
    grid = cfg.grid()
    if cutoffs_for(grid).q_max < 1:
        raise ConfigError("grid too coarse for lp: no shell q >= 1 below the dealias cutoff")
    clock = _PhaseClock()
    report, gates = lp_verdict(grid, cfg.datum_seed if seed is None else seed)
    clock.done("lp")
    (out / "lp_report.json").write_text(json.dumps(report, indent=2) + "\n")
    return _verdict(gates, {"lp": report, "wall_s": clock.wall})


def cmd_selftest(out: Path | None = None) -> int:
    """Operator-identity suite on 100 random band-limited fields at N = 256."""
    from .lp import random_band_limited

    grid = GridSpec(np.pi, 256)
    rng = np.random.default_rng(12345)
    worst: dict[str, float] = {}

    def track(name: str, diff: np.ndarray, f: SpectralField) -> None:
        """Record the relative L2 defect ||diff|| / ||f||."""
        rel = float(np.sqrt(grid.norm2(diff))) / max(f.l2_norm(), 1e-300)
        worst[name] = max(worst.get(name, 0.0), rel)

    for _ in range(100):
        f = random_band_limited(grid, rng, decay=float(rng.uniform(0.05, 0.3)))
        # H(H f) = -(f - mean f)
        hh = hilbert(hilbert(f))
        track("HH", hh.coef + f.coef - np.where(grid.mode_index == 0, f.coef, 0.0), f)
        # Lambda = H d/dx
        track("lambda", frac_laplacian(f, 1.0).coef - hilbert(derivative(f)).coef, f)
        # Lambda^r I_r = id - mean
        r = 0.5
        lam_i = frac_laplacian(riesz_potential(f, r), r).coef
        track("riesz", lam_i - np.where(grid.mode_index == 0, 0.0, f.coef), f)
        # H(f H f) = ((H f)^2 - f^2) / 2 on mean-free fields
        hf = hilbert(f)
        lhs = hilbert(product(f, hf, dealiased=False))
        rhs_f = 0.5 * (grid.to_coef(hf.phys**2) - grid.to_coef(f.phys**2))
        rhs_f[0] = 0.0  # both sides mean-free by the Hilbert transform
        track("fhf", lhs.coef - rhs_f, f)

    ok = all(v <= 1e-10 for v in worst.values())
    lines = [f"{k}: max relative defect {v:.3e}" for k, v in sorted(worst.items())]
    print("\n".join(lines))
    print("selftest:", "PASS" if ok else "FAIL")
    if out is not None:
        (out / "selftest.json").write_text(json.dumps(worst, indent=2) + "\n")
    return EXIT_OK if ok else EXIT_TOLERANCE


def _run_one(command: str, config_path: str, out_dir: Path, seed: int | None) -> int:
    """Run one command on one config and write the record it returns, on
    every path it returns by, as manifest.json; returns the exit code."""
    # a config error can also surface inside a command: a datum file of the
    # wrong size, or a grid that cannot hold the reference datum, shows only
    # once the grid is known
    try:
        cfg = RunConfig.from_file(config_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        if command == "run":
            code, record = cmd_run(cfg, out_dir, seed)
        elif command == "blowup":
            code, record = cmd_blowup(cfg, out_dir)
        elif command == "symmetry":
            code, record = cmd_symmetry(cfg, out_dir)
        else:
            code, record = cmd_lp(cfg, out_dir, seed)
    except (ConfigError, DatumError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, np.linalg.LinAlgError):
        return EXIT_NUMERICAL
    _write_manifest(out_dir, cfg, record)
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="emhd1d", description=__doc__)
    ap.add_argument("command", choices=["run", "blowup", "symmetry", "lp", "selftest"])
    ap.add_argument("--config", help="path to a key = value config file")
    ap.add_argument("--sweep", help="file listing one config path per line")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="override datum seed")
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print(f"config error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out)
    if args.command == "selftest":
        out.mkdir(parents=True, exist_ok=True)
        return cmd_selftest(out)
    if args.sweep:
        sweep_file = Path(args.sweep)
        if not sweep_file.is_file():
            print(f"sweep file not found: {sweep_file}", file=sys.stderr)
            return EXIT_CONFIG
        paths = [ln.strip() for ln in sweep_file.read_text().splitlines() if ln.strip()]
        if not paths:
            return EXIT_CONFIG
        record = {}
        for i, p in enumerate(paths):
            name = f"sweep_{i:03d}"
            record[name] = {"config": p, "exit": _run_one(args.command, p, out / name, args.seed)}
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep.json").write_text(json.dumps(record, indent=2) + "\n")
        # the exit codes rank by severity: ok < tolerance < config < numerical
        return max(r["exit"] for r in record.values())
    if not args.config:
        print("--config is required (or --sweep)", file=sys.stderr)
        return EXIT_CONFIG
    return _run_one(args.command, args.config, out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
