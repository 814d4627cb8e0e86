#!/usr/bin/env python3
"""Benchmark for emhd1d: four closed-loop workloads, checked against the
repository's own tolerance gates.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src``.  After one untimed warm-up pass, one caller runs one
pass after another for ``--seconds`` seconds (and at least ``MIN_PASSES``
passes).  With ``--trace 0`` it prints
the end-to-end metrics listed in ``BENCHMARK.json``; with ``--trace 1`` it
runs the kernel probes, some untraced passes and then traced passes, and
prints the per-layer metrics.  The last line of stdout is the JSON result;
the line before it gives the machine and software it ran on.  Spans and the
full result are written under ``.bench_out/`` in the checkout.  ``--smoke``
shrinks every workload to a few seconds for the tests in this directory.

The workloads and the metric each per-layer number is expected to move are
described in ``bench/README.md``.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported: one thread per process,
# so a run never asks for more threads than the machine has cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
SETUP_SAMPLES = 9

# Pass and set-up times are rescaled to a fixed machine speed.  On a shared
# 2-core Xeon VM the same pass takes 0.75 s for a minute and 1.15 s the
# next, and the calibration kernel slows with it; dividing each time by that
# kernel, timed next to it, cut the ten-run quartile spread of the median
# pass from 17-25 % to 3-12 %, and of the median set-up from 20 % to 6 %.
# CAL_REF_S is a fixed reference: the kernel's time on that VM when this
# benchmark was defined (it has run between 0.02 and 0.04 s there since), so
# calibrated seconds are wall seconds at that reference speed.
CAL_REF_S = 0.035

# per-layer metric -> span names whose self time it sums
SELF_TIMES = {
    "spectral.transform_self_s": ("spectral.to_phys", "spectral.to_coef"),
    "solver.evolve_self_s": ("solver.evolve",),
    "solver.picard_solve_s": ("solver.picard_solve",),
    "blowup.datum_s": ("blowup.datum",),
    "blowup.advect_trajectory_s": ("blowup.advect_trajectory",),
    "blowup.riccati_report_s": ("blowup.riccati_invariant_report",),
    "blowup.pv_oracle_s": ("blowup.pv_blowup_coefficient",),
    "diagnostics.norm_series_s": ("diagnostics.norm_series",),
    "diagnostics.flux_defect_ratio_s": ("diagnostics.flux_defect_ratio",),
    "lp.bernstein_check_s": ("lp.bernstein_check",),
    "lp.commutator_check_s": ("lp.commutator_check",),
    "cli.main_self_s": ("cli.main",),
    "cli.selftest_s": ("cli.cmd_selftest",),
}


def load_package() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "emhd1d" / "__init__.py").is_file():
        print(f"run_bench: no emhd1d package under {src}", file=sys.stderr)
        sys.exit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import emhd1d

    if Path(emhd1d.__file__).resolve().parent != (src / "emhd1d").resolve():
        print(f"run_bench: imported emhd1d from {emhd1d.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def setup_in_child(workload: str, seed: int, smoke: bool) -> None:
    """Time import + grid + datum in this (fresh) process; print seconds."""
    work = OUT / f"setup-{workload}-{os.getpid()}"
    t0 = time.perf_counter()
    load_package()
    import workloads

    workloads.WORKLOADS[workload](work, smoke).setup(seed)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(work, ignore_errors=True)
    print(repr(elapsed))


def measure_setup(workload: str, seed: int, smoke: bool, samples: int) -> list:
    """``(wall_s, calibrated_s)`` of the set-up in each of ``samples`` fresh
    child processes, one after another, calibrated like a pass."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    out = []
    cal_before = calibration_s(1)
    for _ in range(samples):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        wall = float(done.stdout.split()[-1])
        cal_after = calibration_s(1)
        out.append((wall, calibrate(wall, cal_before, cal_after)))
        cal_before = cal_after
    return out


def calibration_s(reps: int) -> float:
    """Mean seconds of a fixed numpy-only kernel resembling the workloads'
    work: FFT round trips at N = 4096, many small-array calls at N = 256,
    and a complex exponential table.  It calls no emhd1d code."""
    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    xi = np.fft.fftfreq(4096, 1.0 / 4096)
    t0 = time.perf_counter()
    for _ in range(reps):
        x = big
        for _ in range(60):
            x = np.fft.ifft(np.fft.fft(x) * 0.5j)
            x = x / np.abs(x).max()
        y = big[:256]
        for _ in range(500):
            y = np.fft.fft(np.real(np.fft.ifft(y)) * 0.999)
        np.exp(-0.01 * xi[:, None] + 1j * np.linspace(0.0, 6.0, 32)[None, :]).mean(1)
    return (time.perf_counter() - t0) / reps


def calibrate(wall: float, cal_before: float, cal_after: float) -> float:
    """Wall seconds rescaled by ``CAL_REF_S`` over the mean of the
    calibration runs just before and just after them."""
    return wall * CAL_REF_S * 2.0 / (cal_before + cal_after)


def run_passes(wl, tracer, budget_s: float, min_passes: int, cal_reps: int) -> list:
    """Closed loop: the next pass starts when the previous one returns.

    Returns ``(wall_s, calibrated_s, PassResult)`` per pass.
    """
    out = []
    cal_before = calibration_s(cal_reps)
    start = time.perf_counter()
    while len(out) < min_passes or time.perf_counter() - start < budget_s:
        tracer.pass_id = len(out)
        t0 = time.perf_counter()
        with tracer.span("pass"):
            res = wl.run_pass(tracer)
        wall = time.perf_counter() - t0
        cal_after = calibration_s(cal_reps)
        out.append((wall, calibrate(wall, cal_before, cal_after), res))
        cal_before = cal_after
    return out


def layer_metrics(tracer, traced: list, untraced_solve: float) -> dict:
    """Per-layer numbers from the median-duration traced pass, so that its
    self times are parts of one pass and add up to at most its duration."""
    order = sorted(range(len(traced)), key=lambda i: traced[i][0])
    pid = order[(len(order) - 1) // 2]
    duration, _, res = traced[pid]
    summary = tracer.pass_summary(pid)
    counts = tracer.pass_counts(pid)

    def total(names, col):
        return sum(summary[n][col] for n in names if n in summary)

    m = {metric: total(names, 2) for metric, names in SELF_TIMES.items()}
    self_sum = sum(m.values())
    transforms = int(total(("spectral.to_phys", "spectral.to_coef"), 0))
    evolve_steps = counts.get("solver.evolve_steps", 0)
    m.update({
        "spectral.transform_calls": transforms,
        "spectral.transforms_per_step": transforms / res.steps if res.steps else 0.0,
        "solver.evolve_steps": evolve_steps,
        "solver.evolve_us_per_step":
            total(("solver.evolve",), 1) / evolve_steps * 1e6 if evolve_steps else 0.0,
        "solver.picard_iterations": counts.get("solver.picard_iterations", 0),
        "lp.sobolev_norm_calls": counts.get("lp.sobolev_norm", 0),
        "cli.bytes_written": int(res.values.get("bytes_written", 0)),
        "blowup.stored_fields_mb": res.values.get("stored_fields_mb", 0.0),
        "trace.overhead_frac": statistics.median(c for _, c, _ in traced) / untraced_solve - 1.0,
        "trace.self_time_share": self_sum / duration,
    })
    return m


def provenance() -> dict:
    import numpy
    import scipy

    def read(path: Path) -> str:
        try:
            return path.read_text().strip()
        except OSError:
            return "unavailable"

    cpu = "unavailable"
    for line in read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read(idx / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = read(idx / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
    }


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; return end-to-end and (when traced) per-layer metrics."""
    load_package()
    import spans
    import workloads

    work = OUT / f"{workload}-{seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[workload](work, smoke)
    try:
        wl.setup(seed)
        setup = measure_setup(workload, seed, smoke, 1 if smoke else SETUP_SAMPLES)
        probes = workloads.run_probes(wl.probe_inputs(), 0.01 if smoke else 0.2) if trace else {}
        # The first pass in a process is slower (ETDRK4: 11 s, then 8 s), so
        # one untimed pass comes first; its gates still count.  Its length
        # sets the calibration to about 5 % of a pass: one calibration run
        # is noisy, and a long pass needs a better estimate of the speed.
        t0 = time.perf_counter()
        warmup = [] if smoke else [wl.run_pass(spans.NullTracer())]
        cal_reps = max(1, round(0.05 * (time.perf_counter() - t0) / CAL_REF_S))
        budget = seconds / 2 if trace else seconds
        min_passes = 1 if trace or smoke else MIN_PASSES
        untraced = run_passes(wl, spans.NullTracer(), budget, min_passes, cal_reps)
        traced = []
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_passes(wl, tracer, budget, 1, cal_reps)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = warmup + [r for _, _, r in untraced + traced]
    gates = [ok for r in passes for _, ok in r.gates]
    solve = statistics.median(c for _, c, _ in untraced)
    steps = statistics.median(r.steps for _, _, r in untraced)
    end_to_end = {
        "setup_s": statistics.median(c for _, c in setup),
        "solve_s": solve,
        "steps_per_s": steps / solve,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layers = {}
    failed_gates = [f"{name}@pass{i}" for i, r in enumerate(passes) for name, ok in r.gates if not ok]
    if trace:
        layers = layer_metrics(tracer, traced, solve)
        layers["setup_wall_s"] = statistics.median(w for w, _ in setup)
        layers["solve_wall_s"] = statistics.median(w for w, _, _ in untraced)
        tracer.write(OUT / "results" / f"spans-{workload}-seed{seed}.csv")
        layers.update(probes)

        def median_value(key):
            vals = [r.values[key] for r in passes if key in r.values]
            return statistics.median(vals) if vals else 0.0

        layers["rel_T_err"] = median_value("rel_T_err")
        layers["slope_err"] = median_value("slope_err")
        layers["fail_frac"] = gates.count(False) / len(gates)
    return {
        "attempted": len(gates),
        "failed": gates.count(False),
        "failed_gates": failed_gates,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "untraced_wall_s": [w for w, _, _ in untraced],
        "untraced_calibrated_s": [c for _, c, _ in untraced],
        "setup_wall_s": [w for w, _ in setup],
        "setup_calibrated_s": [c for _, c in setup],
        "end_to_end": end_to_end,
        "per_layer": layers,
    }


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small sizes and no warm-up, for the tests")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_child:
        setup_in_child(args.workload, args.seed, args.smoke)
        return 0
    load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    kind = "per_layer" if args.trace else "end_to_end"
    units = metric_specs()[kind]
    values = result[kind]
    if set(values) != set(units):
        print(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 2
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "provenance": provenance(), **result,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results" / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if result["failed_gates"]:
        print("failed gates: " + ", ".join(result["failed_gates"]), file=sys.stderr)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
