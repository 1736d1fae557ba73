"""Config-driven experiment runner: the engine behind the command line.

An experiment is described by a RunConfig (parsed from a plain-text
``key = value`` file), runs deterministically from its seed, and leaves four
kinds of artifacts in its output directory:

* ``trajectory.csv``   — step_or_time, magnitude, angle, loss
* ``bounds.csv``       — step_or_time, kind, lower, upper (re-anchored runs
  write one ``bounds_anchor_<step>.csv`` per anchor instead)
* ``report.json``      — {experiment, seed, checks: [{name, pass, margin}],
  runtime_seconds}
* ``plot.gp``          — a self-contained gnuplot 5 script rendering the CSVs

`run_experiment` is the frame of every run: it starts the clock, calls the
registered runner, which writes the other artifacts and returns its checks,
and owns report.json.

Floats are serialized at 17 significant digits, so identical configs (seed
included) produce byte-identical CSVs. A check's ``margin`` is its headroom:
positive means it passed with that much room, negative says how far past the
boundary it failed. Checks suffixed ``_advisory`` never fail a run; they
record diagnostics such as a magnitude excursion outside the (r, R) bracket
an angle band was drawn with — when that happens the angle band's premise is
gone, so its own check is downgraded to advisory for that run too.

Scales: defaults are desk scale (d=20, n=2000, T=20000 against the full-scale
d=100, n=10000, T=100000); ``paper_scale``, set by the command line's
``--paper-scale`` flag and not a config-file key, restores the full-scale values.
Desk runs keep the teacher's expected squared norm by scaling its variance
with 100/d, so every rate constant matches the full-scale dynamics and only
the sampling noise grows.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .bounds import (
    BoundEnvelope,
    EnvelopeReport,
    _frozen_ode_rhs,
    _frozen_rate,
    check_envelope,
    convergence_horizon,
    reanchored,
)
from .descent import (
    DescentConfig,
    eta_threshold,
    flow_forms_for,
    gd_error_scaling,
    run_gd,
    stopping_time,
)
from .errors import ConfigError, DegenerateAngleError, DivergenceError
from .flow import FlowSpec, Trajectory, integrate_polar
from .montecarlo import (
    angle_concentration,
    mc_double_wedge_moment,
    mc_half_space_moment,
    mc_relu_product,
)
from .population import (
    NeuronConfig,
    PolarState,
    WeightState,
    double_wedge_second_moment,
    half_space_second_moment,
    polar_of,
    relu_product_moment,
)

# ---------------------------------------------------------------------------
# configuration

_PAPER = {"d": 100, "n": 10_000, "steps": 100_000}
_DESK = {"d": 20, "n": 2_000, "steps": 20_000}

# Published per-depth settings: learning rate and teacher variance for the
# single-neuron figures (depth = m + 1 layers).
_FIG_ETA = {0: 3e-4, 1: 8e-6, 2: 2e-6}
_FIG_KSTAR = {0: 1.0, 1: 0.5, 2: 0.3}

_REANCHOR = {
    0: {"eta": 6e-4, "steps": 30_000, "anchors": (0, 2_500, 5_000, 7_500)},
    1: {"eta": 1e-4, "steps": 2_000, "anchors": (0, 120, 250, 500)},
}
_REANCHOR_KSTAR = 1.2

# Full-scale depth-5 runs and their desk-size counterparts. The full-scale
# (k, eta) pairs were tuned for the full width/dimension; at desk size
# the large-init forward pass would overflow under them, so desk uses its own
# stable pair exhibiting the same monotone-norm behavior.
_DEEP = {
    "small": {
        "paper": {"k": 0.04, "eta": 8e-4, "steps": 100_000},
        "desk": {"k": 0.04, "eta": 2e-3, "steps": 5_000},
    },
    "large": {
        "paper": {"k": 0.44, "eta": 1e-4, "steps": 30_000},
        "desk": {"k": 0.3, "eta": 2e-4, "steps": 3_000},
    },
}
_DEEP_DEPTH = 5  # weight layers
_DEEP_TARGET_K = 0.1
_DEEP_DIMS = {"paper": {"d": 100, "n": 10_000, "width": 50},
              "desk": {"d": 15, "n": 800, "width": 30}}

_SCALE_RATIO = {"small": 0.1, "middle": 1.0, "large": 2.0}
_SAMPLES = 400  # about this many samples are recorded per run

_INT_KEYS = {"m", "d", "n", "steps", "seed"}
_FLOAT_KEYS = {"eta", "dt", "t_end", "target_scale", "eps"}
_STR_KEYS = {"experiment", "output_dir"}


@dataclass(frozen=True)
class RunConfig:
    """One experiment's inputs. None means 'use the experiment's default'."""

    experiment: str
    m: int | None = None
    d: int | None = None
    n: int | None = None
    eta: float | None = None
    steps: int | None = None
    init_scale: str | float | None = None
    target_scale: float | None = None
    seed: int = 0
    dt: float | None = None
    t_end: float | None = None
    output_dir: str | None = None
    eps: float | None = None
    anchors: tuple[int, ...] | None = None
    paper_scale: bool = False

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; known: {sorted(EXPERIMENTS)}"
            )
        missing = EXPERIMENTS[self.experiment].required - {
            k for k in ("m", "init_scale") if getattr(self, k) is not None
        }
        if missing:
            raise ConfigError(
                f"experiment {self.experiment!r} needs keys: {sorted(missing)}"
            )
        if self.m is not None and self.m < 0:
            raise ConfigError("m must be non-negative")
        if isinstance(self.init_scale, str) and self.init_scale not in _SCALE_RATIO:
            raise ConfigError(
                f"init_scale must be one of {sorted(_SCALE_RATIO)} or an explicit variance"
            )
        for key in (*sorted(_FLOAT_KEYS), "init_scale"):
            value = getattr(self, key)
            if isinstance(value, (int, float)) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")


def parse_config_file(path: str | Path) -> RunConfig:
    """Parse a plain-text ``key = value`` config; '#' starts a comment.

    Unknown keys and malformed values are rejected with file/line context.
    """
    path = Path(path)
    values: dict[str, object] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(rhs)
            elif key in _FLOAT_KEYS:
                values[key] = float(rhs)
            elif key in _STR_KEYS:
                values[key] = rhs
            elif key == "init_scale":
                values[key] = rhs if rhs in _SCALE_RATIO else float(rhs)
            elif key == "anchors":
                values[key] = tuple(int(a) for a in rhs.split(","))
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    if "experiment" not in values:
        raise ConfigError(f"{path}: missing required key 'experiment'")
    try:
        return RunConfig(**values)  # type: ignore[arg-type]
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization helpers

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_trajectory(outdir: Path, rows: list[tuple[float, float, float, float]]) -> None:
    lines = ["step_or_time,magnitude,angle,loss"]
    lines += [",".join(_fmt(c) for c in row) for row in rows]
    (outdir / "trajectory.csv").write_text("\n".join(lines) + "\n")


def _trajectory_rows(traj: Trajectory) -> list[tuple[float, float, float, float]]:
    losses = traj.losses if traj.losses is not None else np.full(len(traj.times), math.nan)
    return [
        (float(t), s.magnitude, s.angle, float(l))
        for t, s, l in zip(traj.times, traj.states, losses)
    ]


def _write_bounds(
    outdir: Path, per_kind: dict[str, EnvelopeReport], filename: str = "bounds.csv"
) -> None:
    lines = ["step_or_time,kind,lower,upper"]
    for kind, rep in per_kind.items():
        lines += [
            f"{_fmt(float(t))},{kind},{_fmt(float(lo))},{_fmt(float(up))}"
            for t, lo, up in zip(rep.times, rep.lowers, rep.uppers)
        ]
    (outdir / filename).write_text("\n".join(lines) + "\n")


def _plot_script(bounds_files: list[str], kinds: list[str], xlabel: str) -> str:
    panels = []
    for kind in kinds:
        col = 2 if kind == "magnitude" else 3
        series = [
            f"'trajectory.csv' skip 1 using 1:{col} with lines lw 2 title '{kind}'"
        ]
        for bf in bounds_files:
            series.append(
                f"\"{bf}\" skip 1 using 1:(strcol(2) eq '{kind}' ? column(3) : NaN) "
                f"with lines dt 2 lc rgb '#888888' title '{kind} lower'"
            )
            series.append(
                f"\"{bf}\" skip 1 using 1:(strcol(2) eq '{kind}' ? column(4) : NaN) "
                f"with lines dt 3 lc rgb '#888888' title '{kind} upper'"
            )
        panels.append((kind, ", \\\n     ".join(series)))
    out = [
        "# generated by reluflow; render with: gnuplot plot.gp",
        "set datafile separator ','",
        "set terminal svg size 960,540 background rgb 'white'",
        "set output 'figure.svg'",
        f"set xlabel '{xlabel}'",
        "set key outside right",
    ]
    if len(panels) > 1:
        out.append(f"set multiplot layout 1,{len(panels)}")
    for kind, series in panels:
        out.append(f"set ylabel '{kind}'")
        out.append("plot " + series)
    if len(panels) > 1:
        out.append("unset multiplot")
    return "\n".join(out) + "\n"


def _check(name: str, ok: bool, margin: float) -> dict:
    return {"name": name, "pass": bool(ok), "margin": float(margin)}


def _advisory(name: str, margin: float) -> dict:
    return {"name": f"{name}_advisory", "pass": True, "margin": float(margin)}


@dataclass(frozen=True)
class ExperimentResult:
    """Where a run wrote its artifacts and whether every check passed."""

    output_dir: Path
    report: dict
    passed: bool
    files: tuple[str, ...] = field(default_factory=tuple)


def _finalize(
    outdir: Path, experiment: str, seed: int, checks: list[dict], t0: float
) -> ExperimentResult:
    report = {
        "experiment": experiment,
        "seed": int(seed),
        "checks": checks,
        "runtime_seconds": time.monotonic() - t0,
    }
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    files = tuple(sorted(p.name for p in outdir.iterdir()))
    return ExperimentResult(
        output_dir=outdir,
        report=report,
        passed=all(c["pass"] for c in checks),
        files=files,
    )


# ---------------------------------------------------------------------------
# problem setup shared by the single-neuron experiments

def _resolve_scales(cfg: RunConfig) -> tuple[int, int, int]:
    base = _PAPER if cfg.paper_scale else _DESK
    d = cfg.d if cfg.d is not None else base["d"]
    n = cfg.n if cfg.n is not None else base["n"]
    steps = cfg.steps if cfg.steps is not None else base["steps"]
    return d, n, steps


def _draw_problem(
    cfg: RunConfig, m: int, base_kstar: float, default_scale: str
) -> tuple[NeuronConfig, WeightState, PolarState, str]:
    """Teacher config, balanced start, its polar state and its scale label.

    The teacher is drawn first, then the start, from the config's seed."""
    d, _, _ = _resolve_scales(cfg)
    # Keep E||target||^2 = d * k at its full-scale value on smaller d.
    kstar = cfg.target_scale if cfg.target_scale is not None else base_kstar * (_PAPER["d"] / d)
    scale = cfg.init_scale if cfg.init_scale is not None else default_scale
    if isinstance(scale, str):
        k, label = _SCALE_RATIO[scale] * kstar, scale
    else:
        ratio = scale / kstar
        k = float(scale)
        label = "small" if ratio < 0.5 else ("middle" if ratio <= 1.5 else "large")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    target = rng.normal(0.0, math.sqrt(kstar), d)
    w0 = rng.normal(0.0, math.sqrt(k), d)
    config = NeuronConfig(d=d, m=m, target_w=target)
    norm0 = float(np.linalg.norm(w0))
    init = WeightState(w0, (norm0,) * m)
    return config, init, polar_of(config, init), label


def _stride(n: int) -> int:
    """Sample stride that keeps about _SAMPLES samples of an n-step run."""
    return max(1, n // _SAMPLES)


def _rr_recipe(label: str, v0: float, tnorm: float) -> tuple[float, float, list[dict]]:
    """Published magnitude-bracket recipe per init scale, with a safe widening
    (recorded as an advisory) if a random draw makes it degenerate."""
    if label == "small":
        r, R = v0, tnorm
    elif label == "middle":
        r, R = tnorm / 2.0, max(v0, tnorm)
    else:
        r, R = tnorm / 2.0, v0
    checks: list[dict] = []
    if not r < R:
        checks.append(_advisory("rR_recipe_degenerate", r - R))
        r, R = 0.5 * min(v0, tnorm), 1.001 * max(v0, tnorm)
    return r, R, checks


def _bracket(checks: list[dict], traj: Trajectory, r: float, R: float) -> bool:
    """Record whether the magnitude stayed in [r, R]; the angle band needs it."""
    vmin, vmax = float(np.min(traj.magnitudes)), float(np.max(traj.magnitudes))
    checks.append(_advisory("magnitude_bracket", min(vmin - r, R - vmax)))
    return r <= vmin and vmax <= R


def _out_dir(cfg: RunConfig, *tags: str) -> Path:
    if cfg.output_dir is not None:
        out = Path(cfg.output_dir)
    else:
        parts = [cfg.experiment, *tags, f"seed{cfg.seed}"]
        out = Path("runs") / "-".join(parts)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run(
    outdir: Path, traj: Trajectory, per_kind: dict[str, EnvelopeReport], xlabel: str
) -> None:
    """trajectory.csv, bounds.csv and a plot.gp over them, one panel per kind."""
    _write_trajectory(outdir, _trajectory_rows(traj))
    _write_bounds(outdir, per_kind)
    (outdir / "plot.gp").write_text(_plot_script(["bounds.csv"], list(per_kind), xlabel))


def _envelope_range_slack(lowers: np.ndarray, uppers: np.ndarray) -> float:
    return 0.02 * float(np.max(uppers) - np.min(lowers))


# ---------------------------------------------------------------------------
# experiment runners: each writes its artifacts and returns (outdir, checks);
# run_experiment times it and writes report.json

_Outcome = tuple[Path, list[dict]]


def _run_flow(cfg: RunConfig) -> _Outcome:
    m = int(cfg.m)
    config, _, polar0, label = _draw_problem(cfg, m, _FIG_KSTAR.get(m, 1.0), "small")
    tnorm = config.target_norm

    t_end = cfg.t_end if cfg.t_end is not None else min(
        20.0, convergence_horizon(m, tnorm, polar0.magnitude, polar0.angle)
    )
    # RK4 needs h |f'| below about 2.785; stiff deep starts get a smaller step.
    rate = _frozen_rate(m, tnorm ** (m + 1), polar0.magnitude)
    dt = cfg.dt if cfg.dt is not None else min(1e-3, 1.0 / rate)
    spec = FlowSpec(m=m, target_norm=tnorm, initial=polar0, t_end=t_end, dt=dt)
    traj = integrate_polar(spec, sample_every=_stride(round(t_end / dt)))

    outdir = _out_dir(cfg, f"m{m}", label)
    r, R, checks = _rr_recipe(label, polar0.magnitude, tnorm)

    mag_env = BoundEnvelope("magnitude", m, tnorm, polar0.angle, polar0.magnitude)
    ang_env = BoundEnvelope("angle", m, tnorm, polar0.angle, polar0.magnitude, r=r, R=R)
    slack = 1e-6
    mag_rep = check_envelope(traj, mag_env, slack)
    ang_rep = check_envelope(traj, ang_env, slack)

    bracket_ok = _bracket(checks, traj, r, R)
    checks.append(_check("magnitude_envelope", mag_rep.passed, slack - mag_rep.worst_margin))
    if bracket_ok:
        checks.append(_check("angle_envelope", ang_rep.passed, slack - ang_rep.worst_margin))
    else:
        checks.append(_advisory("angle_envelope", slack - ang_rep.worst_margin))

    _write_run(outdir, traj, {"magnitude": mag_rep, "angle": ang_rep}, "time")
    return outdir, checks


def _band_checks(
    traj: Trajectory,
    env: BoundEnvelope,
    eta: float,
    name: str,
    enforce: bool,
) -> tuple[dict, EnvelopeReport]:
    rep = check_envelope(traj, env, 0.0, eta=eta)
    slack = _envelope_range_slack(rep.lowers, rep.uppers)
    ok = rep.worst_margin <= slack
    margin = slack - rep.worst_margin
    check = _check(name, ok, margin) if enforce else _advisory(name, margin)
    return check, rep


def _run_descent_figure(cfg: RunConfig, kinds: list[str]) -> _Outcome:
    m = int(cfg.m)
    if "magnitude" in kinds and m >= 2:
        raise ConfigError("descent-side magnitude bands exist for m <= 1 only")
    _, n, steps = _resolve_scales(cfg)
    config, init, polar0, label = _draw_problem(cfg, m, _FIG_KSTAR.get(m, 1.0), "small")
    eta = cfg.eta if cfg.eta is not None else _FIG_ETA.get(m)
    if eta is None:
        raise ConfigError(f"no default step size for m={m}; set eta explicitly")
    dc = DescentConfig(eta=eta, steps=steps, mode="empirical", n_samples=n,
                       seed=cfg.seed, record_every=_stride(steps))
    traj = run_gd(config, init, dc)
    tnorm = config.target_norm
    outdir = _out_dir(cfg, f"m{m}", label)
    r, R, checks = _rr_recipe(label, polar0.magnitude, tnorm)
    bracket_ok = _bracket(checks, traj, r, R)

    bounds_data: dict[str, EnvelopeReport] = {}
    for kind in kinds:
        if kind == "magnitude":
            env = BoundEnvelope("magnitude", m, tnorm, polar0.angle, polar0.magnitude)
            enforce = True
        else:
            env = BoundEnvelope(
                "angle", m, tnorm, polar0.angle, polar0.magnitude, r=r, R=R
            )
            enforce = bracket_ok
        check, data = _band_checks(traj, env, eta, f"{kind}_envelope", enforce)
        checks.append(check)
        bounds_data[kind] = data

    thr = eta_threshold(
        BoundEnvelope("angle", m, tnorm, polar0.angle, polar0.magnitude, r=r, R=R)
    )
    checks.append(_check("eta_regime", eta <= 0.1 * thr, 0.1 * thr - eta))

    _write_run(outdir, traj, bounds_data, "step")
    return outdir, checks


def _run_reanchor(cfg: RunConfig) -> _Outcome:
    """Descent run whose magnitude band is re-anchored at cfg.anchors.

    Each anchor writes its own bounds CSV; the bands must all hold and each
    later anchor must have strictly smaller worst margin over its window.
    """
    m = int(cfg.m)
    if m not in _REANCHOR:
        raise ConfigError("re-anchored magnitude bands exist for m in {0, 1} only")
    defaults = _REANCHOR[m]
    anchors = tuple(sorted(int(a) for a in cfg.anchors or defaults["anchors"]))
    if anchors[0] < 0:
        raise ConfigError("anchors must be non-negative steps")

    _, n, _ = _resolve_scales(cfg)
    steps = cfg.steps if cfg.steps is not None else defaults["steps"]
    if anchors[-1] >= steps:
        raise ConfigError(f"anchors {anchors} must precede the run length {steps}")
    eta = cfg.eta if cfg.eta is not None else defaults["eta"]
    config, init, polar0, label = _draw_problem(cfg, m, _REANCHOR_KSTAR, "small")

    # Sample stride must divide every anchor so each anchor lands on a sample;
    # among those strides take the largest giving >= ~400 samples.
    g = math.gcd(steps, *(a for a in anchors if a > 0)) if any(anchors) else steps
    target = _stride(steps)
    record = max(s for s in range(1, g + 1) if g % s == 0 and s <= target)
    dc = DescentConfig(
        eta=eta, steps=steps, mode="empirical", n_samples=n, seed=cfg.seed,
        record_every=record,
    )
    traj = run_gd(config, init, dc)
    tnorm = config.target_norm

    outdir = _out_dir(cfg, f"m{m}", label)
    checks: list[dict] = []
    base_env = BoundEnvelope("magnitude", m, tnorm, polar0.angle, polar0.magnitude)
    worst_slacks: list[float] = []
    bounds_files: list[str] = []
    times_list = list(traj.times)
    for anchor in anchors:
        idx = times_list.index(float(anchor))
        env = reanchored(base_env, traj, idx) if anchor else base_env
        rep = check_envelope(traj, env, 0.0, eta=eta)
        slack = _envelope_range_slack(rep.lowers, rep.uppers)
        checks.append(
            _check(f"magnitude_envelope_anchor_{anchor}",
                   rep.worst_margin <= slack, slack - rep.worst_margin)
        )
        # How far the band ever sits from the trajectory: the later the
        # anchor, the tighter this must get ("latest bounds are tightest").
        worst_slacks.append(max(
            float(np.max(rep.uppers - rep.values)),
            float(np.max(rep.values - rep.lowers)),
        ))
        fname = f"bounds_anchor_{anchor}.csv"
        _write_bounds(outdir, {"magnitude": rep}, fname)
        bounds_files.append(fname)

    tighten = all(b < a for a, b in zip(worst_slacks, worst_slacks[1:]))
    gaps = [a - b for a, b in zip(worst_slacks, worst_slacks[1:])]
    checks.append(_check("anchors_tighten", tighten, min(gaps) if gaps else 0.0))

    _write_trajectory(outdir, _trajectory_rows(traj))
    (outdir / "plot.gp").write_text(_plot_script(bounds_files, ["magnitude"], "step"))
    return outdir, checks


def _zmax(estimate_value: np.ndarray, closed: np.ndarray, stderr: np.ndarray) -> float:
    err = np.abs(np.asarray(estimate_value) - np.asarray(closed))
    return float(np.max(err / np.maximum(np.asarray(stderr), 1e-300)))


def _run_lemma_verify(cfg: RunConfig) -> _Outcome:
    d = cfg.d if cfg.d is not None else 5
    n = cfg.n if cfg.n is not None else 1_000_000
    # Independent child streams for the direction draw and each estimator.
    kids = [int(c.generate_state(1)[0])
            for c in np.random.SeedSequence(cfg.seed).spawn(7)]
    rng = np.random.default_rng(np.random.SeedSequence(kids[0]))
    while True:
        u = rng.standard_normal(d)
        v = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        try:
            wedge = double_wedge_second_moment(u, v)
            break
        except DegenerateAngleError:  # pragma: no cover - measure zero
            continue
    theta = math.acos(float(np.clip(u @ v, -1.0, 1.0)))
    half = half_space_second_moment(u)
    prod = relu_product_moment(theta)

    checks = []
    cases = [
        ("half_space_gaussian", mc_half_space_moment(u, n, kids[1]), half),
        ("double_wedge_gaussian", mc_double_wedge_moment(u, v, n, kids[2]), wedge),
        ("relu_product_gaussian", mc_relu_product(u, v, n, kids[3]), prod),
        ("half_space_sphere",
         mc_half_space_moment(u, n, kids[4], dist="sphere"), half / d),
        ("double_wedge_sphere",
         mc_double_wedge_moment(u, v, n, kids[5], dist="sphere"), wedge / d),
    ]
    for name, est, closed in cases:
        z = _zmax(est.value, closed, est.stderr)
        checks.append(_check(name, z <= 3.0, 3.0 - z))
    frac, bound = angle_concentration(100, 0.3, 100_000, kids[6])
    checks.append(_check("angle_concentration", frac >= bound, frac - bound))

    return _out_dir(cfg, f"d{d}"), checks


def _run_error_scaling(cfg: RunConfig) -> _Outcome:
    horizon = cfg.t_end if cfg.t_end is not None else 8.0
    etas = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    # The m = 1 frozen-gap flow at eps = 0 with a unit teacher from v0 = 0.5:
    # the upper magnitude band of the table is its exact solution.
    env = BoundEnvelope("magnitude", 1, 1.0, math.pi / 2, 0.5)
    form = flow_forms_for(env)["upper"]
    pairs = gd_error_scaling(form, lambda w: _frozen_ode_rhs(1, 1.0, w), etas, horizon)

    outdir = _out_dir(cfg)
    lines = ["eta,max_error"] + [f"{_fmt(e)},{_fmt(err)}" for e, err in pairs]
    (outdir / "errors.csv").write_text("\n".join(lines) + "\n")

    checks = []
    ratios = [a[1] / b[1] for a, b in zip(pairs, pairs[1:])]
    for (eta, _), ratio in zip(pairs, ratios):
        ok = 1.6 <= ratio <= 2.4
        checks.append(_check(f"halving_ratio_eta_{eta:g}", ok, min(ratio - 1.6, 2.4 - ratio)))
    slope = float(np.polyfit(np.log([p[0] for p in pairs]), np.log([p[1] for p in pairs]), 1)[0])
    checks.append(_check("log_log_slope", 0.8 <= slope <= 1.2, 0.2 - abs(slope - 1.0)))
    return outdir, checks


def _run_stopping_time(cfg: RunConfig) -> _Outcome:
    m = int(cfg.m) if cfg.m is not None else 1
    config, init, polar0, label = _draw_problem(cfg, m, _FIG_KSTAR.get(m, 1.0), "middle")
    tnorm = config.target_norm
    r, R, checks = _rr_recipe(label, polar0.magnitude, tnorm)

    env = BoundEnvelope("angle", m, tnorm, polar0.angle, polar0.magnitude, r=r, R=R)
    eps = cfg.eps if cfg.eps is not None else 1e-2
    eta = cfg.eta if cfg.eta is not None else 0.005 * eta_threshold(env)
    T = stopping_time(env, eta, eps)

    dc = DescentConfig(eta=eta, steps=T, mode="population", record_every=_stride(T))
    traj = run_gd(config, init, dc)
    final_angle = traj.states[-1].angle
    _bracket(checks, traj, r, R)
    checks.append(
        _check("angle_beats_target", final_angle > math.pi - eps,
               final_angle - (math.pi - eps))
    )

    outdir = _out_dir(cfg, f"m{m}", label)
    rep = check_envelope(traj, env, 0.0, eta=eta)
    _write_run(outdir, traj, {"angle": rep}, "step")
    return outdir, checks


# --- general deep network ---------------------------------------------------

class _MLPPass:
    """Forward and backward passes of a bias-free ReLU network on one fixed
    batch, computed into buffers allocated once per run.

    Each (n, width) float64 array is 192 KB at desk scale, above glibc's
    128 KiB mmap threshold: allocated afresh, every one of the ~20 per step
    would be mapped, page-faulted and unmapped again, which cost about half
    of each step. The arithmetic and its order are those of a plain
    allocating pass, so results are bit-identical to one.
    """

    def __init__(self, weights: list[np.ndarray], x: np.ndarray, y: np.ndarray) -> None:
        n = x.shape[0]
        widths = [w.shape[1] for w in weights[:-1]]
        self.x, self.y, self.n = x, y, n
        self.pres = [np.empty((n, k)) for k in widths]
        self.acts = [x] + [np.empty((n, k)) for k in widths]
        self.masks = [np.empty((n, k), dtype=bool) for k in widths]
        self.back = [np.empty((n, k)) for k in widths]  # error at each hidden layer
        self.out = np.empty((n, 1))
        self.e = np.empty(n)
        self.grads = [np.empty_like(w) for w in weights]

    def forward(self, weights: list[np.ndarray]) -> np.ndarray:
        h = self.x
        for w, z, a in zip(weights[:-1], self.pres, self.acts[1:]):
            np.matmul(h, w, out=z)
            h = np.maximum(z, 0.0, out=a)
        np.matmul(h, weights[-1], out=self.out)
        return self.out[:, 0]

    def loss(self, weights: list[np.ndarray]) -> float:
        return 0.5 * float(np.mean((self.forward(weights) - self.y) ** 2))

    def gradients(self, weights: list[np.ndarray]) -> list[np.ndarray]:
        """Gradient of the loss in each weight matrix, in buffers that the
        next call overwrites."""
        e = np.subtract(self.forward(weights), self.y, out=self.e)
        np.divide(e, self.n, out=e)
        np.matmul(self.acts[-1].T, e[:, None], out=self.grads[-1])
        g = np.matmul(e[:, None], weights[-1].T, out=self.back[-1])
        for i in range(len(weights) - 2, -1, -1):
            np.multiply(g, np.greater(self.pres[i], 0.0, out=self.masks[i]), out=g)
            np.matmul(self.acts[i].T, g, out=self.grads[i])
            if i:
                g = np.matmul(g, weights[i].T, out=self.back[i - 1])
        return self.grads


def _run_deep_general(cfg: RunConfig) -> _Outcome:
    label = cfg.init_scale if isinstance(cfg.init_scale, str) else None
    if label not in ("small", "large"):
        raise ConfigError("deep-general needs init_scale small or large")
    scale = "paper" if cfg.paper_scale else "desk"
    preset = _DEEP[label][scale]
    sizes = _DEEP_DIMS[scale]
    d = cfg.d if cfg.d is not None else sizes["d"]
    n = cfg.n if cfg.n is not None else sizes["n"]
    steps = cfg.steps if cfg.steps is not None else preset["steps"]
    eta = cfg.eta if cfg.eta is not None else preset["eta"]
    k = cfg.target_scale if cfg.target_scale is not None else preset["k"]

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    dims = [d] + [sizes["width"]] * (_DEEP_DEPTH - 1) + [1]
    teacher = [
        rng.normal(0.0, math.sqrt(_DEEP_TARGET_K), (a, b))
        for a, b in zip(dims, dims[1:])
    ]
    weights = [rng.normal(0.0, math.sqrt(k), (a, b)) for a, b in zip(dims, dims[1:])]
    x = rng.standard_normal((n, d))
    h = x
    for w in teacher[:-1]:
        h = np.maximum(h @ w, 0.0)
    y = (h @ teacher[-1])[:, 0]

    record_every = _stride(steps)
    norms = []
    losses = []
    times = []

    def theta_norm() -> float:
        return math.sqrt(sum(float(np.sum(w * w)) for w in weights))

    # Buffers once per run: each (n, width) array sits above the mmap
    # threshold, so allocating it every step would map and unmap it.
    mlp = _MLPPass(weights, x, y)
    times.append(0.0)
    norms.append(theta_norm())
    losses.append(mlp.loss(weights))
    for step in range(steps):
        for w, g in zip(weights, mlp.gradients(weights)):
            w -= eta * g
        if (step + 1) % record_every == 0 or step + 1 == steps:
            nrm = theta_norm()
            if not math.isfinite(nrm) or nrm > 1e12:
                raise DivergenceError(f"deep run blew up at step {step + 1}")
            times.append(float(step + 1))
            norms.append(nrm)
            losses.append(mlp.loss(weights))

    burn = max(1, math.ceil(0.01 * steps))
    recorded = np.array(norms)
    rec_times = np.array(times)
    after = recorded[rec_times >= burn]
    diffs = np.diff(after)
    tol = 1e-9 * float(np.max(recorded))
    if label == "small":
        worst = float(np.min(diffs)) if len(diffs) else 0.0
        ok = worst >= -tol
        margin = worst + tol
    else:
        worst = float(np.max(diffs)) if len(diffs) else 0.0
        ok = worst <= tol
        margin = tol - worst
    checks = [
        _check("norm_monotone_after_burn_in", ok, margin),
        _check("loss_decreased", losses[-1] < losses[0], losses[0] - losses[-1]),
    ]

    outdir = _out_dir(cfg, label)
    rows = [(t, nr, math.nan, ls) for t, nr, ls in zip(times, norms, losses)]
    _write_trajectory(outdir, rows)
    (outdir / "plot.gp").write_text(_plot_script([], ["magnitude"], "step"))
    return outdir, checks


# ---------------------------------------------------------------------------

class Experiment(NamedTuple):
    """A registered experiment kind: what it does, the config keys it cannot
    default, and the runner that executes it."""

    description: str
    required: frozenset[str]
    run: Callable[[RunConfig], _Outcome]


EXPERIMENTS: dict[str, Experiment] = {
    "flow": Experiment(
        "integrate the reduced flow and check it against its analytic bands",
        frozenset({"m"}), _run_flow),
    "gd": Experiment(
        "full-batch descent on sampled data, checked against descent-side bands",
        frozenset({"m"}),
        lambda cfg: _run_descent_figure(
            cfg, ["magnitude", "angle"] if int(cfg.m) <= 1 else ["angle"])),
    "figure-angle": Experiment(
        "angle dynamics of descent inside its analytic band",
        frozenset({"m", "init_scale"}), lambda cfg: _run_descent_figure(cfg, ["angle"])),
    "figure-magnitude": Experiment(
        "magnitude dynamics of descent inside its analytic band (m <= 1)",
        frozenset({"m", "init_scale"}), lambda cfg: _run_descent_figure(cfg, ["magnitude"])),
    "reanchor": Experiment(
        "descent magnitude bands re-anchored along the run; bands must tighten",
        frozenset({"m"}), _run_reanchor),
    "lemma-verify": Experiment(
        "Monte Carlo verification of the Gaussian moment closed forms",
        frozenset(), _run_lemma_verify),
    "error-scaling": Experiment(
        "flow-vs-descent substitution error as a function of step size",
        frozenset(), _run_error_scaling),
    "stopping-time": Experiment(
        "certified step count, then a run that must beat it",
        frozenset(), _run_stopping_time),
    "deep-general": Experiment(
        "depth-5 ReLU network; parameter norm must move monotonically",
        frozenset({"init_scale"}), _run_deep_general),
}


def run_experiment(cfg: RunConfig) -> ExperimentResult:
    """Run one experiment to completion: the frame of every run.

    Starts the clock, lets the registered runner write its artifacts and
    return its checks, then writes report.json with the runtime.
    """
    t0 = time.monotonic()
    outdir, checks = EXPERIMENTS[cfg.experiment].run(cfg)
    return _finalize(outdir, cfg.experiment, cfg.seed, checks, t0)
