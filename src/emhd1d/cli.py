"""Command-line front end.

    emhd1d <run|blowup|symmetry|lp|selftest> --config PATH [--sweep PATH]
           [--out DIR] [--seed U64]

Config files are flat ``section.key = value`` text (blank lines and ``#``
comments ignored); the ``model.*`` and ``stepper.*`` keys are the fields of
``ModelParams`` and ``StepperConfig`` of the same name, and
``outputs.snapshot_cadence`` is ``StepperConfig.snapshot_cadence``.  Exit
codes: 0 pass, 1 tolerance failure, 2 config error, 3 numerical abort.  A
config error (in the arguments, a config, a datum file, a grid that cannot
hold the reference datum or an ``lp`` shell q >= 1, or an ``--out`` that
cannot be made or holds a directory named like a file to be written) prints
one line ``config error: ...`` to stderr.  A command that does not fit in
memory is a numerical abort too, and like a floating-point error it writes
no manifest.json.  A command first builds its inputs (its datum, or ``lp``'s
grid), then removes manifest.json and every file it writes (``selftest``
selftest.json, a sweep sweep.json before its first run) from ``--out``, so a
reused one holds the latest output beside files no command writes.  Every
config error, and an abort while the inputs are built, comes before that and
leaves ``--out`` as it was.
``run`` and ``blowup``
write steps.csv as soon as their run ends: one row per accepted step, t
and each of the stepper's per-step diagnostics (dt, bound, sup_lam_b,
sup_lam_bx, max_lam_bx, n_modes, a, gamma, G).  A ``run`` passes
only if it reaches t_end or, with a finite ``stepper.blowup_threshold``
(which must be positive), stops at the threshold or at CFL collapse after
at least one step; any other termination (a non-finite field, ill_posed,
max_steps, or CFL collapse with no threshold or before the first step)
writes only manifest.json and steps.csv and exits 3.  A ``run`` holds no
snapshot table: it takes the norms and frames of its snapshots 32 at a time
as it steps, and the frames go to a temporary file that becomes
snapshots.bin only when the run passes, so no other exit, an abort
included, leaves one.  A ``blowup`` passes only if its run stops at the
blowup threshold; any other termination, t_end included, likewise exits 3
with its cause recorded.  ``--seed`` stands for a ``datum.seed`` line in
each config, and the manifest's config echo records it, so the echo run as
a config writes the same data; blowup's reference datum takes no seed.
``--sweep`` takes a file listing one config path per line and runs them one
after another in that order.  Run i writes to OUT/sweep_<i:03d>,
OUT/sweep.json maps each run directory to its config path and exit code,
and the sweep exits with the most severe code (0 < 1 < 2 < 3).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .blowup import (
    BlowupDatum, DatumError, FitWindowError, advect_trajectory, make_reference_datum, riccati_verdict, run_blowup
)
from .diagnostics import BLOCK, NormSeries, norm_block, rough_datum
from .gates import Gate
from .lp import cutoffs_for, lp_verdict, random_band_limited
from .solver import ModelParams, StepperConfig, evolve, scaling_symmetry_verdict, snapshots
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
    """Typed view of a config file with defaults for every key: ``model.*``
    and ``stepper.*`` are the fields of ``model`` and ``stepper`` of the same
    name, ``outputs.snapshot_cadence`` is ``stepper.snapshot_cadence``, and
    any other ``section.name`` is the field ``section_name``."""

    grid_L: float = 6.0
    grid_N: int = 256
    model: ModelParams = ModelParams("full", 1.0, 2.0)
    stepper: StepperConfig = StepperConfig(snapshot_cadence=10)
    datum_kind: str = "gaussian_packet"
    datum_s_base: float = 0.5
    datum_norm: float = 0.05
    datum_seed: int = 0
    datum_path: str = ""
    diagnostics_s_list: tuple[float, ...] = (1.0,)
    symmetry_lam: float = 2.0
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        kv = parse_config_text(p.read_text())
        # each key's part (None for a field of the config itself), field and
        # default, which fixes the type of its value
        keys = {f.name.replace("_", ".", 1): (None, f.name, f.default) for f in fields(cls) if "_" in f.name}
        for part in ("model", "stepper"):
            obj = getattr(cls, part)
            keys |= {f"{part}.{f.name}": (part, f.name, getattr(obj, f.name)) for f in fields(obj)}
        keys["outputs.snapshot_cadence"] = keys.pop("stepper.snapshot_cadence")
        given: dict = {None: {}, "model": {}, "stepper": {}}
        for key, val in kv.items():
            if key not in keys:
                raise ConfigError(f"unknown config key: {key}")
            part, name, default = keys[key]
            try:
                if isinstance(default, bool):
                    value = _BOOLS[val.lower()]
                elif isinstance(default, tuple):
                    value = tuple(float(v) for v in val.split(","))
                else:
                    value = type(default)(val)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {val!r}") from exc
            given[part][name] = value
        cfg = cls(raw=dict(kv), **given[None])
        if cfg.datum_kind not in ("paper_blowup", "gaussian_packet", "random_rough", "from_file"):
            raise ConfigError(f"unknown datum.kind: {cfg.datum_kind}")
        if cfg.datum_kind == "from_file" and not Path(cfg.datum_path).is_file():
            raise ConfigError(f"datum.path not found: {cfg.datum_path}")
        if cfg.datum_seed < 0:
            raise ConfigError(f"datum.seed must be non-negative, got {cfg.datum_seed}")
        for key in ("datum.norm", "datum.s_base", "diagnostics.s_list"):
            val = getattr(cfg, key.replace(".", "_"))
            if not np.all(np.isfinite(val)):
                raise ConfigError(f"{key} must be finite, got {val}")
        try:
            n_modes = cfg.grid().n_modes
            cfg.model = replace(cfg.model, **given["model"])
            cfg.stepper = replace(cfg.stepper, **given["stepper"])
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        if not (math.isfinite(cfg.symmetry_lam) and cfg.symmetry_lam > 0):
            raise ConfigError(f"symmetry.lam must be positive and finite, got {cfg.symmetry_lam}")
        # the symmetry runs scale t by lam^alpha, B by lam^(alpha - 2) and |xi| by lam: each power of lam they form,
        # times t_end, a step (at least dt_init / 2 or t_end) or |xi| <= pi / dx, stays a normal float under this bound
        s = max(abs(math.log2(v)) for v in (cfg.stepper.dt_init, cfg.stepper.t_end, math.pi / cfg.grid().dx))
        if max(cfg.model.alpha, 2.0) * (abs(math.log2(cfg.symmetry_lam)) + s + 1) >= 1022:
            raise ConfigError(f"symmetry.lam = {cfg.symmetry_lam} takes the symmetry runs out of float range")
        # the norms weight |c_k|^2 by (1 + xi^2)^s and |xi|^(2s + alpha) on the band pi / L <= |xi| <= pi / dx:
        # each weight stays a normal float under this bound
        ends = (math.log2(math.pi / cfg.grid_L), 0.5 * math.log2(1.0 + (math.pi / cfg.grid().dx) ** 2))
        for v in cfg.diagnostics_s_list:
            if (2.0 * abs(v) + cfg.model.alpha) * (max(map(abs, ends)) + 1) >= 1022:
                raise ConfigError(f"diagnostics.s_list holds s = {v}, whose norm weights leave float range")
        if cfg.datum_kind == "from_file":
            arr = np.fromfile(cfg.datum_path, dtype="<f8")
            if arr.shape != (n_modes,):
                raise ConfigError(f"datum file holds {arr.size} float64 values, grid needs {n_modes}")
            if bad := arr.size - int(np.count_nonzero(np.isfinite(arr))):
                raise ConfigError(f"datum file holds {bad} non-finite values")
        return cfg

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_L, self.grid_N)

    def datum(self, grid: GridSpec, seed: int | None = None) -> SpectralField:
        sd = self.datum_seed if seed is None else seed
        if self.datum_kind == "paper_blowup":
            return make_reference_datum(grid).B0
        if self.datum_kind == "gaussian_packet":
            return SpectralField.from_function(grid, lambda x: np.exp(-(x**2)) * np.sin(3.0 * x))
        if self.datum_kind == "random_rough":
            return rough_datum(grid, self.datum_s_base, norm=self.datum_norm, seed=sd)
        # the file, checked by from_file, is ascending in x from -L; phys follows grid.nodes
        return SpectralField.from_phys(grid, np.fft.ifftshift(np.fromfile(self.datum_path, dtype="<f8")))


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
        "scheme": cfg.stepper.scheme,
        "config": cfg.raw,
        **extra,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


class _PhaseClock:
    """Wall seconds of a command's phases, each timed from the end of the
    one before, less the time ``spent`` apart meanwhile, such as a run's
    ``observer_s``; ``wall`` holds only the phases that have finished."""

    def __init__(self) -> None:
        self.wall: dict[str, float] = {}
        self._last = time.perf_counter()

    def done(self, phase: str) -> None:
        now = time.perf_counter()
        self.wall[phase] = now - self._last
        self._last = now

    def spent(self, phase: str, seconds: float) -> None:
        """Count ``seconds`` as ``phase``, summed over every use, and not as
        part of the phase running now."""
        self.wall[phase] = self.wall.get(phase, 0.0) + seconds
        self._last += seconds


def _write_csv(path: Path, names: list[str], columns) -> None:
    """A header line of ``names``, then one row per entry of the equal-length
    ``columns``, every value at 17 significant digits; CRLF line ends."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",", header=",".join(names),
               comments="", newline="\r\n")


def _write_steps(out: Path, run) -> None:
    """steps.csv: t and each ``diagnostics`` entry, one row per accepted step."""
    _write_csv(out / "steps.csv", ["t", *run.diagnostics], [run.step_times[1:], *run.diagnostics.values()])


class _SnapshotStream:
    """The ``keep`` of a ``run``'s ``snapshots`` observer: each snapshot
    row, zero-padded to N/2 + 1 entries, goes into one reused block of
    ``BLOCK`` rows, and each full block, and at the end the last partial
    one, gives its ``norm_block`` columns and appends its frames to ``fh``,
    raw little-endian float64, each ascending in x from -L.  The blocks
    filled as the run steps count in its ``observer_s``."""

    def __init__(self, grid: GridSpec, s_list, alpha: float, fh) -> None:
        self.grid, self.s_list, self.alpha, self.fh = grid, s_list, alpha, fh
        self.block = np.zeros((BLOCK, grid.n_modes // 2 + 1), dtype=complex)
        self.filled = 0
        self.times: list[float] = []
        self.norms: list[np.ndarray] = []  # the norm_block columns of each block

    def __call__(self, t: float, c: np.ndarray) -> None:
        row = self.block[self.filled]
        row[: c.size] = c
        row[c.size :] = 0.0
        self.filled += 1
        self.times.append(t)
        if self.filled == BLOCK:
            self.flush()

    def flush(self) -> None:
        if self.filled:
            rows = self.block[: self.filled]
            self.norms.append(norm_block(self.grid, rows, self.s_list, self.alpha))
            frames = np.fft.fftshift(self.grid.to_phys(rows), axes=-1)
            frames.astype("<f8", copy=False).tofile(self.fh)
            self.filled = 0


def cmd_run(cfg: RunConfig, B0: SpectralField, out: Path) -> tuple[int, dict]:
    grid = B0.grid
    clock = _PhaseClock()
    part = out / "snapshots.bin.part"
    try:
        with part.open("wb") as fh:
            stream = _SnapshotStream(grid, cfg.diagnostics_s_list, cfg.model.alpha, fh)
            run = evolve(B0, cfg.model, cfg.stepper, snapshots(stream, cfg.stepper.snapshot_cadence))
            clock.spent("snapshots", run.observer_s)
            clock.done("evolve")
            _write_steps(out, run)
            steps = len(run.step_times) - 1
            record = {"termination": run.termination, "steps": steps, "wall_s": clock.wall}
            # a run that seeks a blowup may end at its threshold or when dt
            # collapses, but a collapse before its first step is no blowup
            finished = ("t_end",)
            if math.isfinite(run.config.blowup_threshold):
                finished += ("blowup_threshold", "cfl_collapse") if steps else ("blowup_threshold",)
            if run.termination not in finished:
                return EXIT_NUMERICAL, record
            stream.flush()
        part.replace(out / "snapshots.bin")
    finally:
        part.unlink(missing_ok=True)
    ns = NormSeries.from_norms(np.array(stream.times), stream.s_list, np.concatenate(stream.norms, axis=-1))
    names, columns = ["t"], [ns.times]
    for i, s in enumerate(ns.s_list):
        names += [f"hs_{s:g}", f"hdiss_{s:g}", f"budget_{s:g}"]
        columns += [ns.hs[i], ns.hs_diss[i], ns.budget[i]]
    _write_csv(out / "series.csv", names, columns)
    sidecar = {
        "dtype": "<f8",
        "shape": [len(ns.times), grid.n_modes],
        "grid": {"L": grid.half_length, "N": grid.n_modes},
        "times": [float(t) for t in ns.times],
    }
    (out / "snapshots.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    clock.done("outputs")
    return EXIT_OK, record


def _rungs(run) -> list[list[int]]:
    """[N_rung, first step taken on it] of each stretch of steps a run took
    on one grid-ladder rung, so one pair per rung switch and the start."""
    n_modes = run.diagnostics["n_modes"]
    first = np.flatnonzero(np.diff(n_modes, prepend=0))
    return [[int(n_modes[i]), int(i)] for i in first]


def _verdict(gates: list[Gate], record: dict) -> tuple[int, dict]:
    """Exit 0 if every gate of a harness passed, else 1; the manifest record
    gets one row per gate, so an exit 1 names the gates that failed."""
    record["gates"] = [g._asdict() for g in gates]
    return (EXIT_OK if all(g.passed for g in gates) else EXIT_TOLERANCE), record


def cmd_blowup(cfg: RunConfig, datum: BlowupDatum, out: Path) -> tuple[int, dict]:
    """Riccati blowup harness from the reference ``datum``; of the rest of the config it reads only stepper.scheme."""
    clock = _PhaseClock()
    run, _ = run_blowup(datum.B0.grid, datum=datum, scheme=cfg.stepper.scheme)
    clock.spent("characteristic", run.observer_s)  # integrated inside evolve, as the run stepped
    clock.done("evolve")
    _write_steps(out, run)
    record = {
        "termination": run.termination, "steps": len(run.step_times) - 1, "ladder": _rungs(run),
        "wall_s": clock.wall,
    }
    # the fit and its gates mean something only on a run that reached the
    # singularity: one that ran to t_end past the predicted time, or stopped
    # for any other cause, is a numerical abort with its cause recorded
    if run.termination != "blowup_threshold":
        return EXIT_NUMERICAL, record
    traj = advect_trajectory(run, datum.x0)  # integrated as the run stepped
    try:
        report, gates = riccati_verdict(run, datum, traj)
    except FitWindowError:
        record["termination"] = "fit_window"
        return EXIT_NUMERICAL, record
    (out / "blowup_report.json").write_text(json.dumps(report, indent=2) + "\n")
    _write_csv(out / "trajectory.csv", ["t", "X", "bx", "bxx", "w", "inv_w"],
               [traj.t, traj.X, traj.bx, traj.bxx, traj.w, 1.0 / traj.w])
    clock.done("report")
    record["report"] = report
    return _verdict(gates, record)


def cmd_symmetry(cfg: RunConfig, B: SpectralField, out: Path) -> tuple[int, dict]:
    """Discrete check of the rescaling invariance B -> lam^(a-2) B(lam x, lam^a t).

    Run A evolves the datum ``B`` on its grid with a fixed dt; run B the
    rescaled datum on the grid contracted by lam (see
    ``scaling_symmetry_mismatch``).  A non-finite mismatch means a run
    overflowed: a numerical abort, exit 3.
    """
    n_steps = max(1, int(round(cfg.stepper.t_end / cfg.stepper.dt_init)))
    clock = _PhaseClock()
    report, gates = scaling_symmetry_verdict(
        B, cfg.model, cfg.symmetry_lam, cfg.stepper.t_end, n_steps, cfg.stepper.scheme
    )
    clock.done("evolve")  # both runs
    rel = report["rel_l2_mismatch"]
    if not math.isfinite(rel):
        return EXIT_NUMERICAL, {"termination": "non_finite", "wall_s": clock.wall}
    (out / "symmetry.json").write_text(json.dumps(report, indent=2) + "\n")
    return _verdict(gates, {"rel_l2_mismatch": rel, "wall_s": clock.wall})


def lp_grid_check(cfg: RunConfig) -> GridSpec:
    """``lp``'s inputs: the config's grid, which must hold a shell q >= 1."""
    if cutoffs_for(grid := cfg.grid()).q_max < 1:
        raise ConfigError("grid too coarse for lp: no shell q >= 1 below the dealias cutoff")
    return grid


def cmd_lp(cfg: RunConfig, grid: GridSpec, out: Path) -> tuple[int, dict]:
    """The three lp harnesses, on a grid ``lp_grid_check`` passed."""
    clock = _PhaseClock()
    report, gates = lp_verdict(grid, cfg.datum_seed)
    clock.done("lp")
    (out / "lp_report.json").write_text(json.dumps(report, indent=2) + "\n")
    return _verdict(gates, {"lp": report, "wall_s": clock.wall})


def cmd_selftest(out: Path | None = None) -> int:
    """Operator-identity suite on one stack of 100 random band-limited fields at N = 256."""
    grid = GridSpec(np.pi, 256)
    rng = np.random.default_rng(12345)
    rows = (random_band_limited(grid, rng, decay=float(rng.uniform(0.05, 0.3))).coef for _ in range(100))
    f = SpectralField.from_coef(grid, np.array(list(rows)))
    size = np.maximum(f.l2_norm(), 1e-300)
    hf, zero = hilbert(f), grid.mode_index == 0
    lam_i = frac_laplacian(riesz_potential(f, 0.5), 0.5).coef
    rhs_f = 0.5 * (grid.to_coef(hf.phys**2) - grid.to_coef(f.phys**2))
    rhs_f[..., 0] = 0.0  # both sides mean-free by the Hilbert transform

    def defect(diff: np.ndarray) -> float:
        """The worst relative L2 defect ||diff|| / ||f|| over the fields."""
        return float(np.max(np.sqrt(grid.norm2(diff)) / size))

    worst = {
        "HH": defect(hilbert(hf).coef + f.coef - np.where(zero, f.coef, 0.0)),  # H H f = mean f - f
        "lambda": defect(frac_laplacian(f, 1.0).coef - hilbert(derivative(f)).coef),  # Lambda = H d/dx
        "riesz": defect(lam_i - np.where(zero, 0.0, f.coef)),  # Lambda^r I_r = id - mean, r = 1/2
        "fhf": defect(hilbert(product(f, hf, dealiased=False)).coef - rhs_f),  # H(f Hf) = ((Hf)^2 - f^2) / 2
    }
    ok = all(v <= 1e-10 for v in worst.values())
    lines = [f"{k}: max relative defect {v:.3e}" for k, v in sorted(worst.items())]
    print("\n".join(lines))
    print("selftest:", "PASS" if ok else "FAIL")
    if out is not None:
        (out / "selftest.json").write_text(json.dumps(worst, indent=2) + "\n")
    return EXIT_OK if ok else EXIT_TOLERANCE


# each command, the files besides manifest.json it may write, and its inputs, built before those files go
_COMMANDS = {
    "run": (cmd_run, ("series.csv", "snapshots.bin", "snapshots.bin.part", "snapshots.json", "steps.csv"),
            lambda cfg: cfg.datum(cfg.grid())),
    "blowup": (cmd_blowup, ("blowup_report.json", "trajectory.csv", "steps.csv"),
               lambda cfg: make_reference_datum(cfg.grid())),
    "symmetry": (cmd_symmetry, ("symmetry.json",), lambda cfg: cfg.datum(cfg.grid())),
    "lp": (cmd_lp, ("lp_report.json",), lp_grid_check),
}


def _claim(out: Path, names: tuple[str, ...]) -> None:
    """Make the directory ``out`` and remove the files ``names`` from it; a
    path ``mkdir`` cannot make, or a name that is a directory in ``out``, is
    a config error raised before any name goes."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from exc
    paths = [out / name for name in names]
    if clash := next((path for path in paths if path.is_dir()), None):
        raise ConfigError(f"output file {clash} is a directory")
    for path in paths:
        path.unlink(missing_ok=True)


def _run_one(command: str, config_path: str, out_dir: Path, seed: int | None) -> int:
    """Run one command on one config, ``seed`` (if given) standing for its datum.seed line in the run and
    the manifest's echo; write the record it returns, on every path, as manifest.json; return the exit code."""
    try:
        cfg = RunConfig.from_file(config_path)
        if seed is not None:
            cfg.datum_seed, cfg.raw["datum.seed"] = seed, str(seed)
        cmd, files, inputs = _COMMANDS[command]
        given = inputs(cfg)
        _claim(out_dir, ("manifest.json", *files))
        code, record = cmd(cfg, given, out_dir)
    except (ConfigError, DatumError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical abort: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_manifest(out_dir, cfg, record)
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="emhd1d", description=__doc__)
    ap.add_argument("command", choices=[*_COMMANDS, "selftest"])
    ap.add_argument("--config", help="path to a key = value config file")
    ap.add_argument("--sweep", type=Path, help="file listing one config path per line")
    ap.add_argument("--out", type=Path, default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="override datum seed")
    args = ap.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        if args.command == "selftest":
            _claim(args.out, ("selftest.json",))
            return cmd_selftest(args.out)
        if not args.sweep:
            if not args.config:
                raise ConfigError("--config is required (or --sweep)")
            return _run_one(args.command, args.config, args.out, args.seed)
        if not args.sweep.is_file():
            raise ConfigError(f"sweep file not found: {args.sweep}")
        paths = [ln.strip() for ln in args.sweep.read_text().splitlines() if ln.strip()]
        if not paths:
            raise ConfigError(f"sweep file lists no config: {args.sweep}")
        _claim(args.out, ("sweep.json",))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    record = {}
    for i, p in enumerate(paths):
        name = f"sweep_{i:03d}"
        record[name] = {"config": p, "exit": _run_one(args.command, p, args.out / name, args.seed)}
    (args.out / "sweep.json").write_text(json.dumps(record, indent=2) + "\n")
    # the exit codes rank by severity: ok < tolerance < config < numerical
    return max(r["exit"] for r in record.values())


if __name__ == "__main__":
    sys.exit(main())
