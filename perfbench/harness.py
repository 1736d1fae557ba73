"""Measurement loop, correctness accounting, reference comparison, reporting."""
from __future__ import annotations

import collections
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

from tracing import LAYERS, SpanTable, Tracer

# Outputs may move from the recorded reference by this much (normwise
# relative, per output array) and still count as correct: enough for a
# reordered sum, far below any change a reader of the artifacts would see.
REF_TOL = 1e-6

# Set-up runs in this many fresh interpreters; setup_s is their median.
SETUP_REPEATS = 7

# Per-unit costs in the ROADMAP baseline table (2 CPUs, Python 3.11.7,
# NumPy 2.4.6): (label, metric key, unit, baseline value).
BASELINE = (
    ("integrate_polar", "flow.polar.us_per_step", "us/step", 5.3),
    ("integrate_vector", "flow.vector.us_per_step", "us/step", 69.0),
    ("run_gd, population gradient", "descent.gd_pop.us_per_step", "us/step", 28.0),
    ("run_gd, empirical", "descent.gd_emp.us_per_step", "us/step", 57.0),
    ("population_gradient", "population.gradient.us_per_call", "us/call", 17.0),
    ("deep-magnitude ODE sweep", "bounds.sweep.ms_per_call", "ms/call", 86.0),
    ("frozen_gap_magnitude_ode, tau=10", "bounds.ode.tau10_ms", "ms/call", 83.0),
    ("implicit path, tau=10, hits", "bounds.implicit.tau10_hit_ms", "ms/call", 3900.0),
    ("implicit path, tau=10, fallbacks", "bounds.implicit.tau10_fallback_ms", "ms/call", 3900.0),
)


def environment(nproc: int, thread_cap: int, thread_vars) -> dict:
    """nproc, CPU model, Python, NumPy and BLAS versions, and the thread cap."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_omp_thread_cap": thread_cap,
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
    }


# ---------------------------------------------------------------------------
# outputs: digests and deviation from the reference


def rel_err(outputs: dict[str, np.ndarray], ref: dict[str, np.ndarray]) -> float:
    """Largest normwise relative deviation max|x - r| / max|r| over arrays."""
    if set(outputs) != set(ref):
        return math.inf
    worst = 0.0
    for key, r in ref.items():
        x = np.asarray(outputs[key], dtype=float)
        if x.shape != r.shape:
            return math.inf
        xnan, rnan = np.isnan(x), np.isnan(r)
        if not np.array_equal(xnan, rnan):
            return math.inf
        if xnan.all():
            continue
        num = float(np.max(np.abs(x[~xnan] - r[~rnan])))
        den = float(np.max(np.abs(r[~rnan])))
        if num:
            worst = max(worst, num / den if den else math.inf)
    return worst


def _ref_paths(ref_dir: Path, name: str) -> tuple[Path, Path]:
    stem = ref_dir / f"{name}-default"
    return stem.with_suffix(".npz"), stem.with_suffix(".json")


def artifact_digests(res) -> dict[str, str]:
    """sha256 per artifact: raw file bytes where the workload has files,
    else the bytes of each output array."""
    if res.files:
        return dict(res.files)
    return {k: hashlib.sha256(np.ascontiguousarray(v, dtype=np.float64).tobytes()).hexdigest()
            for k, v in res.outputs.items()}


def compare_reference(res, name: str, ref_dir: Path):
    """(ref_rel_err, artifacts whose bytes changed), or None without a reference."""
    npz, meta = _ref_paths(ref_dir, name)
    if not (npz.is_file() and meta.is_file()):
        return None
    info = json.loads(meta.read_text())
    mine = artifact_digests(res)
    changed = sorted(k for k in set(mine) | set(info["artifacts"])
                     if mine.get(k) != info["artifacts"].get(k))
    with np.load(npz) as data:
        ref = {k: data[k] for k in data.files}
    return rel_err(res.outputs, ref), changed


# ---------------------------------------------------------------------------
# passes


def _timed(workload, inputs, scratch: Path, mark):
    work, collect = workload.run_pass(inputs, scratch, mark)
    c0 = time.process_time()
    t0 = time.perf_counter()
    value = work()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return wall, cpu, collect(value)


def _setup_samples(cmd: list[str], name: str, seed: int | None, root: Path) -> list[float]:
    seed_args = [] if seed is None else ["--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            cmd + ["--setup-only", "--workload", name] + seed_args,
            cwd=root, capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure(workload, inputs, args, setup_cmd, root: Path, out: Path, ref_dir: Path,
            info: dict) -> int:
    """Run the passes, check them, print the report and the result line."""
    out.mkdir(parents=True, exist_ok=True)
    scratch = out / f"work-{workload.name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        # A traced run reports no setup_s; skipping the samples keeps it short.
        setup = [] if args.trace else _setup_samples(setup_cmd, workload.name, args.seed, root)
        tracer = Tracer() if args.trace else None
        plain, traced = [], []  # (wall, cpu, result)
        start = time.perf_counter()
        while True:
            plain.append(_timed(workload, inputs, scratch, lambda: None))
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(_timed(workload, inputs, scratch, tracer.next_op))
                finally:
                    tracer.uninstall()
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = [r for _, _, r in plain + traced]
    attempted = sum(len(r.ops) for r in results)
    failures = collections.Counter(
        name for r in results for _, failed in r.ops for name in failed)
    failed = sum(1 for r in results for _, f in r.ops if f)
    problems = [p for r in results for p in r.problems]
    first = artifact_digests(results[0])
    if any(artifact_digests(r) != first for r in results[1:]):
        problems.append("passes disagree: outputs are not deterministic")
    default = workload.is_default(args.seed)
    ref, changed = (compare_reference(results[0], workload.name, ref_dir) if default
                    else None) or (None, [])
    if ref is not None and not ref <= REF_TOL:
        problems.append(f"outputs deviate from the reference by {ref:.3g}")

    walls = [w for w, _, _ in plain]
    if args.trace:
        spans = tracer.arrays()
        np.savez_compressed(out / f"trace-{workload.name}-seed{args.seed}.npz", **spans)
        metrics = per_layer(SpanTable(spans), traced, walls)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(c for _, c, _ in plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(f"env: {json.dumps(info)}")
    print(f"workload={workload.name} seed={args.seed} passes={len(plain)}"
          f"{f'+{len(traced)} traced' if traced else ''} "
          f"pass walls={[round(w, 4) for w in walls]} setup samples="
          f"{[round(s, 4) for s in setup]}")
    print(f"operations: attempted={attempted} failed={failed} "
          f"failures by check={dict(sorted(failures.items()))}")
    print("ref_rel_err: " + (
        f"{ref:.3g} ({len(changed)} artifacts differ in bytes"
        f"{': ' + ', '.join(changed[:8]) if changed else ''})" if ref is not None
        else "n/a (the reference holds the default inputs only)"))
    for p in problems[:20]:
        print(f"problem: {p}")
    if args.trace:
        _print_traffic(metrics, traced)

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": info, "setup_samples": setup, "pass_walls": walls,
        "traced_walls": [w for w, _, _ in traced], "failures_by_check": dict(failures),
        "ref_rel_err": ref, "ref_changed_artifacts": changed, "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    (out / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")
    print(json.dumps(result))
    return 0


def record_reference(workload, inputs, ref_dir: Path, out: Path) -> int:
    scratch = out / f"work-{workload.name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        _, _, res = _timed(workload, inputs, scratch, lambda: None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = [(op, f) for op, f in res.ops if f]
    if failed or res.problems:
        print(f"refusing to record a reference with failures: {failed} {res.problems}")
        return 1
    ref_dir.mkdir(parents=True, exist_ok=True)
    npz, meta = _ref_paths(ref_dir, workload.name)
    np.savez_compressed(npz, **res.outputs)
    meta.write_text(json.dumps({
        "workload": workload.name, "inputs": "default",
        "operations": len(res.ops), "artifacts": artifact_digests(res),
    }, indent=2) + "\n")
    print(f"recorded {npz.name}: {len(res.outputs)} arrays")
    return 0


# ---------------------------------------------------------------------------
# per-layer metrics from the traced passes


def per_layer(t: SpanTable, traced: list, plain_walls: list[float]) -> dict:
    n = len(traced)
    units, raised = t.a["units"], t.a["raised"]
    out: dict[str, tuple[float, str]] = {}

    def count(mask) -> float:
        return float(np.count_nonzero(mask)) / n

    def per_unit(mask, scale: float) -> float:
        total = float(units[mask].sum())
        return float(t.dur[mask].sum()) / total * scale if total else 0.0

    def mean_ms(mask) -> float:
        return float(t.dur[mask].mean()) * 1e3 if mask.any() else 0.0

    busy = {layer: t.busy(layer) / n for layer in LAYERS}

    for mode, key in (("empirical", "gd_emp"), ("population", "gd_pop")):
        sel = t.mask("descent.run_gd", mode)
        out[f"descent.{key}.steps"] = (float(units[sel].sum()) / n, "count")
        out[f"descent.{key}.us_per_step"] = (per_unit(sel, 1e6), "us")
    out["descent.gd_bands.points"] = (count(t.mask("descent.gd_bounds")), "count")
    out["descent.busy_s"] = (busy["descent"], "s")

    entry = t.mask("experiments.run_experiment") | t.mask("experiments.reanchor_experiment")
    parent = t.a["parent"]
    nested = np.zeros_like(entry)
    nested[entry] = (parent[entry] >= 0) & entry[np.maximum(parent[entry], 0)]
    out["experiments.runs"] = (count(entry & ~nested), "count")
    out["experiments.busy_s"] = (busy["experiments"], "s")
    out["experiments.bytes_written"] = (
        statistics.fmean(r.bytes_written for _, _, r in traced), "B")
    enforced = sum(r.angle_checks[0] for _, _, r in traced)
    total = sum(r.angle_checks[1] for _, _, r in traced)
    out["experiments.angle_enforced_ratio"] = (enforced / total if total else 0.0, "ratio")
    out["cli.busy_s"] = (busy["cli"], "s")

    for key, name in (("polar", "flow.integrate_polar"), ("vector", "flow.integrate_vector")):
        sel = t.mask(name)
        out[f"flow.{key}.steps"] = (float(units[sel].sum()) / n, "count")
        out[f"flow.{key}.us_per_step"] = (per_unit(sel, 1e6), "us")
    out["flow.busy_s"] = (busy["flow"], "s")

    curve = t.mask("bounds.envelope_curve")
    out["bounds.envelope_curve.points"] = (float(units[curve].sum()) / n, "count")
    out["bounds.envelope_curve.busy_s"] = (t.subtree_busy(curve) / n, "s")
    sweep = t.mask("bounds.envelope_curve", "sweep")
    out["bounds.sweep.ms_per_call"] = (mean_ms(sweep), "ms")
    imp = t.mask("bounds.frozen_gap_magnitude_implicit")
    hits = imp & (raised == 0)
    out["bounds.implicit.attempts"] = (count(imp), "count")
    out["bounds.implicit.hit_ratio"] = (
        float(np.count_nonzero(hits)) / np.count_nonzero(imp) if imp.any() else 0.0, "ratio")
    out["bounds.implicit.busy_s"] = (t.subtree_busy(imp) / n, "s")
    out["bounds.implicit.hit_busy_s"] = (t.subtree_busy(hits) / n, "s")
    out["bounds.implicit.fallback_busy_s"] = (t.subtree_busy(imp & (raised != 0)) / n, "s")
    tau10 = units == 10.0
    out["bounds.implicit.tau10_hit_ms"] = (mean_ms(hits & tau10), "ms")
    out["bounds.implicit.tau10_fallback_ms"] = (mean_ms(imp & (raised != 0) & tau10), "ms")
    ode = t.mask("bounds.frozen_gap_magnitude_ode")
    out["bounds.ode.calls"] = (count(ode), "count")
    # At the default step only: the dynamics check solves with a coarser one.
    ode_default = t.mask("bounds.frozen_gap_magnitude_ode", "dt=0.0001")
    out["bounds.ode.tau10_ms"] = (mean_ms(ode_default & tau10), "ms")
    out["bounds.busy_s"] = (busy["bounds"], "s")

    for key, name in (
        ("half_space", "mc_half_space_moment"),
        ("double_wedge", "mc_double_wedge_moment"),
        ("relu_product", "mc_relu_product"),
        ("loss", "mc_population_loss"),
        ("gradient", "mc_population_gradient"),
    ):
        out[f"montecarlo.{key}.s_per_msample"] = (
            per_unit(t.mask(f"montecarlo.{name}"), 1e6), "s/Msample")
    out["montecarlo.concentration.s_per_mtrial"] = (
        per_unit(t.mask("montecarlo.angle_concentration"), 1e6), "s/Mtrial")
    out["montecarlo.bytes_drawn"] = (float(t.a["bytes"][t.layer == "montecarlo"].sum()) / n, "B")
    out["montecarlo.busy_s"] = (busy["montecarlo"], "s")

    pop = t.layer == "population"
    out["population.calls"] = (count(pop), "count")
    grad = t.mask("population.population_gradient")
    out["population.gradient.us_per_call"] = (
        float(t.dur[grad].mean()) * 1e6 if grad.any() else 0.0, "us")
    out["population.busy_s"] = (busy["population"], "s")

    traced_walls = [w for w, _, _ in traced]
    out["trace.bookkeeping_s"] = (float(t.cost.sum()) / n, "s")
    out["trace.wall_s"] = (statistics.median(traced_walls), "s")
    out["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    return out


def _print_traffic(metrics: dict, traced: list) -> None:
    # Busy times are means per traced pass with the tracing bookkeeping taken
    # out; so is the wall time they are shares of.
    wall = statistics.fmean(w for w, _, _ in traced) - metrics["trace.bookkeeping_s"][0]
    shares = {layer: metrics[f"{layer}.busy_s"][0] / wall for layer in LAYERS}
    print(f"tracing bookkeeping taken out: {metrics['trace.bookkeeping_s'][0]:.4g} s per pass")
    print("busy share of traced wall less bookkeeping: " + ", ".join(
        f"{layer} {100 * s:.1f}%" for layer, s in shares.items())
        + f", outside layers {100 * (1 - sum(shares.values())):.1f}%")
    print("traced per-unit cost vs ROADMAP baseline (x = measured / baseline; !! beyond 2x):")
    for label, key, unit, base in BASELINE:
        value = metrics[key][0]
        if not value:
            print(f"  {label:<36} not exercised{'':>14} baseline {base:g} {unit}")
            continue
        ratio = value / base
        flag = "!!" if ratio > 2 or ratio < 0.5 else "  "
        print(f"  {label:<36} {value:>12.4g} {unit:<8} baseline {base:g} {unit}  "
              f"x{ratio:.2f} {flag}")
    print(f"  implicit path busy: hits {metrics['bounds.implicit.hit_busy_s'][0]:.4g} s, "
          f"fallbacks {metrics['bounds.implicit.fallback_busy_s'][0]:.4g} s per pass")
