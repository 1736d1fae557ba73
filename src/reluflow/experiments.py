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

`run_experiment` is the frame of every run, and the one code that reads a
descent or touches the disk. It starts the clock, reads the run's descent
if its kind has one, calls the registered runner, which returns its checks
and the text of each artifact by file name, and writes those artifacts and
report.json into the run's directory. Runners are pure: they run no
descent and write no file.

Descents go through a `DescentMemo`, keyed on the exact inputs of their
`run_gd` call. Runs handed the same memo compute each distinct descent once.
Each descending experiment states its one descent in a plan
(`Experiment.descent`); the frame runs the plan's descent and hands the
runner the plan and its trajectory. The command line plans
the descents of all the configs of a serial invocation (`plan_descents`),
marches the distinct empirical ones together in one `run_gd_batch` per
dimension (`DescentMemo.prefill`), and hands that one memo to every run. So
a run, and a twin run (the same descent checked against another band),
reads a trajectory bit for bit the one it would compute itself.
`run_experiment` called alone gets a fresh memo, so nothing is shared
across calls, and the artifacts are the same either way.

Floats are serialized at 17 significant digits, so identical configs (seed
included) produce byte-identical CSVs. A check's ``margin`` is its headroom:
positive means it passed with that much room, negative says how far past the
boundary it failed. Checks suffixed ``_advisory`` never fail a run; they
record diagnostics such as a magnitude excursion outside the (r, R) bracket
an angle band was drawn with — when that happens the angle band's premise is
gone, so its own check is downgraded to advisory for that run too. The
banded runs (flow, gd, figure-*) share one body, `_check_bands`, and every
band check, each re-anchored one included, follows `_band_check`'s rule.

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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bounds import (
    _ETA_CEILING,
    BoundEnvelope,
    EnvelopeReport,
    _band_forms,
    _frozen_ode_rhs,
    _frozen_rate,
    check_envelope,
    convergence_horizon,
    reanchored,
)
from .descent import (
    DescentConfig,
    eta_threshold,
    gd_error_scaling,
    run_gd,
    run_gd_batch,
    stopping_time,
)
from .errors import ConfigError, DivergenceError, DomainError
from .flow import _BLOWUP, FlowSpec, Trajectory, integrate_polar
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
    _check_count,
    _check_positive,
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
# Most RK4 steps a flow run may take: 20-30 s at the 2-3 us a polar step
# costs on a 2-vCPU Xeon host.
_MAX_FLOW_STEPS = 10**7
# Most population-gradient steps a stopping-time descent may take: 20-25 s
# at the 20-25 us such a step costs on the same host.
_MAX_POPULATION_STEPS = 10**6

_INT_KEYS = {"m", "d", "n", "steps", "seed"}
# Smallest value of each count a run can use; every float key must be > 0.
_INT_MIN = {"m": 0, "d": 1, "n": 2, "steps": 1, "seed": 0}
_FLOAT_KEYS = {"eta", "dt", "t_end", "target_scale", "eps"}
_STR_KEYS = {"experiment", "output_dir"}
# Keys every experiment accepts; any other key set must be one its runner reads.
_EVERYWHERE = frozenset({"experiment", "seed", "output_dir", "paper_scale"})


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
        spec = EXPERIMENTS[self.experiment]
        missing = sorted(k for k in spec.required if getattr(self, k) is None)
        if missing:
            raise ConfigError(f"experiment {self.experiment!r} needs keys: {missing}")
        legal = _EVERYWHERE | spec.reads
        unread = [f.name for f in fields(self)
                  if f.name not in legal and getattr(self, f.name) is not None]
        if unread:
            raise ConfigError(f"experiment {self.experiment!r} does not read keys: {unread}")
        if isinstance(self.init_scale, str) and self.init_scale not in _SCALE_RATIO:
            raise ConfigError(
                f"init_scale must be one of {sorted(_SCALE_RATIO)} or an explicit variance"
            )
        if self.output_dir == "":  # Path('') would be the working directory
            raise ConfigError("output_dir needs a value")
        try:  # the package's own input rules, reported as config errors
            for key in (*sorted(_FLOAT_KEYS), "init_scale"):
                if isinstance(getattr(self, key), (int, float)):
                    _check_positive(getattr(self, key), key)
            for key, low in _INT_MIN.items():
                if getattr(self, key) is not None:
                    _check_count(getattr(self, key), key, low)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        if self.anchors is not None and min(self.anchors, default=0) < 0:
            raise ConfigError(f"anchors must be non-negative steps, got {self.anchors}")
        if self.anchors is not None and len(set(self.anchors)) < len(self.anchors):
            raise ConfigError(f"anchors must be distinct steps, got {self.anchors}")
        if self.eps is not None and self.eps >= math.pi:  # any angle beats pi - eps <= 0
            raise ConfigError(f"eps must be < pi, got {self.eps}")
        if self.eps is not None and math.pi - self.eps == math.pi:  # no angle beats pi - eps
            raise ConfigError(f"eps must exceed pi's resolution, got {self.eps}")
        if self.dt is not None and self.t_end is not None and self.dt > self.t_end:
            raise ConfigError(f"dt must be <= t_end, got dt={self.dt} > t_end={self.t_end}")
        if self.experiment != "deep-general" and self.d is not None and self.d < 2:
            raise ConfigError(f"d must be >= 2 for {self.experiment} (two vectors in "
                              f"R^1 are parallel or antiparallel), got {self.d}")


def parse_config_file(path: str | Path) -> RunConfig:
    """Parse a plain-text ``key = value`` config; '#' starts a comment.

    Unknown keys and malformed values are rejected with file/line context.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
                if not rhs:  # an empty output_dir would be the working directory
                    raise ConfigError(f"{path}:{lineno}: {key!r} needs a value")
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


def _csv(header: str, rows: Sequence[tuple]) -> str:
    """A CSV's text: the header, then one line per row, numbers at 17 digits."""
    lines = [header] + [",".join(c if isinstance(c, str) else _fmt(c) for c in row)
                        for row in rows]
    return "\n".join(lines) + "\n"


def _trajectory_csv(rows: Sequence[tuple]) -> str:
    return _csv("step_or_time,magnitude,angle,loss", rows)


def _bounds_csv(per_kind: dict[str, EnvelopeReport]) -> str:
    return _csv("step_or_time,kind,lower,upper", [
        (t, kind, lo, up) for kind, rep in per_kind.items()
        for t, lo, up in zip(rep.times, rep.lowers, rep.uppers)])


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
    """Where a run wrote its artifacts and whether every check passed.

    files names what the run wrote, report.json included; a file an earlier
    run left in the same directory is not listed.
    """

    output_dir: Path
    report: dict
    passed: bool
    files: tuple[str, ...] = field(default_factory=tuple)
    descent_shared: bool = False  # the run read a descent an earlier run computed


def _finalize(
    cfg: RunConfig, checks: list[dict], artifacts: dict[str, str], t0: float,
    descent_shared: bool,
) -> ExperimentResult:
    """Write the run's artifacts, then report.json, into its directory."""
    outdir = _run_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        (outdir / name).write_text(text)
    report = {
        "experiment": cfg.experiment,
        "seed": int(cfg.seed),
        "checks": checks,
        "runtime_seconds": time.monotonic() - t0,
    }
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return ExperimentResult(
        output_dir=outdir,
        report=report,
        passed=all(c["pass"] for c in checks),
        files=tuple(sorted([*artifacts, "report.json"])),
        descent_shared=descent_shared,
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


def _run_dir(cfg: RunConfig) -> Path:
    """Its output_dir, else runs/<experiment>-<parts>-seed<N>: one <key><value>
    part per other key the config sets, in field order, and `paper` at paper scale."""
    if cfg.output_dir is not None:
        return Path(cfg.output_dir)
    parts = [cfg.experiment]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name not in _EVERYWHERE and value is not None:
            parts.append(f.name + (",".join(map(str, value)) if f.name == "anchors"
                                   else str(value)))
    return Path("runs") / "-".join(parts + ["paper"] * cfg.paper_scale + [f"seed{cfg.seed}"])


def _run_files(
    traj: Trajectory, bounds: dict[str, dict[str, EnvelopeReport]], xlabel: str
) -> dict[str, str]:
    """trajectory.csv, each bounds file (by name, its reports by kind) and a
    plot.gp over them, one panel per kind."""
    kinds = list(next(iter(bounds.values())))
    rows = [(t, s.magnitude, s.angle, l) for t, s, l in zip(traj.times, traj.states, traj.losses)]
    return {"trajectory.csv": _trajectory_csv(rows),
            **{name: _bounds_csv(per_kind) for name, per_kind in bounds.items()},
            "plot.gp": _plot_script(list(bounds), kinds, xlabel)}


def _descent_key(config: NeuronConfig, init: WeightState, dc: DescentConfig) -> tuple:
    """Every input of a `run_gd` call: equal keys give bit-identical runs."""
    return (dc, config.m, config.target_w.tobytes(), init.w.tobytes(), init.hidden)


class DescentMemo:
    """The trajectories of `run_gd` calls, keyed on the calls' exact inputs.

    A call whose key is stored gets the stored Trajectory instead of a second
    run; `reused` counts the calls after a key's first reader. `prefill`
    stores many descents from one batched march, and `run` stores a lone
    one. Only a trajectory that finished is stored: a call that raises, or a
    batch row that fails, stores nothing, and the next equal call runs again.
    Every reader gets the same read-only Trajectory, stored without its
    weight states, which no runner reads.
    """

    def __init__(self) -> None:
        self._trajectories: dict[tuple, Trajectory] = {}
        self._read: set[tuple] = set()
        self.reused = 0

    def run(self, config: NeuronConfig, init: WeightState, dc: DescentConfig) -> Trajectory:
        key = _descent_key(config, init, dc)
        if key not in self._trajectories:
            # run_gd is looked up at call time, so a wrapper set on this
            # module (a tracer) sees every descent that does run.
            self._store(key, run_gd(config, init, dc))
        if key in self._read:
            self.reused += 1
        self._read.add(key)
        return self._trajectories[key]

    def prefill(self, problems: Sequence[tuple[NeuronConfig, WeightState, DescentConfig]]) -> None:
        """Run the distinct empirical descents among `problems` (`run_gd`
        inputs) that are not stored yet, one `run_gd_batch` per dimension d,
        and store each row that finished. A batch that raises (its data draw
        may not fit in memory) stores nothing: each of its rows descends
        alone when its run reads it, and raises there, after the runs
        before it have ended."""
        todo: dict[int, dict[tuple, tuple]] = {}
        for config, init, dc in problems:
            key = _descent_key(config, init, dc)
            if dc.mode == "empirical" and key not in self._trajectories:
                todo.setdefault(config.d, {}).setdefault(key, (config, init, dc))
        for rows in todo.values():
            try:
                outs = run_gd_batch(list(rows.values()))
            except Exception:  # each row's run repeats it alone and raises at its turn
                continue
            for key, out in zip(rows, outs):
                if isinstance(out, Trajectory):
                    self._store(key, out)

    def _store(self, key: tuple, traj: Trajectory) -> None:
        self._trajectories[key] = replace(traj, weight_states=None)


# ---------------------------------------------------------------------------
# experiment runners: each returns its checks and its artifacts' texts by
# file name; run_experiment times it and writes them and report.json

_Outcome = tuple[list[dict], dict[str, str]]


def _band_check(
    traj: Trajectory, env: BoundEnvelope, eta: float | None, name: str, enforce: bool
) -> tuple[dict, EnvelopeReport]:
    """One band's check: on a flow (eta None) the band holds within 1e-6; on a
    descent, within 2 % of the band's range (max upper - min lower)."""
    rep = check_envelope(traj, env, 0.0, eta=eta)
    slack = 1e-6 if eta is None else 0.02 * float(np.max(rep.uppers) - np.min(rep.lowers))
    margin = slack - rep.worst_margin
    check = _check(name, rep.worst_margin <= slack, margin) if enforce else _advisory(name, margin)
    return check, rep


def _check_bands(
    traj: Trajectory, config: NeuronConfig, polar0: PolarState,
    label: str, kinds: list[str], eta: float | None,
) -> tuple[list[dict], dict[str, str], BoundEnvelope]:
    """Every banded run's body: the [r, R] recipe and bracket, one check per
    kind and the run's artifacts. The magnitude band is always enforced; the
    angle band, whose rates assume [r, R], only while the magnitude stayed in
    it. Returns the checks, the artifacts and the angle envelope."""
    m, tnorm = config.m, config.target_norm
    r, R, checks = _rr_recipe(label, polar0.magnitude, tnorm)
    bracket_ok = _bracket(checks, traj, r, R)
    envs = {
        "magnitude": BoundEnvelope("magnitude", m, tnorm, polar0.angle, polar0.magnitude),
        "angle": BoundEnvelope("angle", m, tnorm, polar0.angle, polar0.magnitude, r=r, R=R),
    }
    reports: dict[str, EnvelopeReport] = {}
    for kind in kinds:
        check, reports[kind] = _band_check(
            traj, envs[kind], eta, f"{kind}_envelope", kind == "magnitude" or bracket_ok)
        checks.append(check)
    xlabel = "time" if eta is None else "step"
    return checks, _run_files(traj, {"bounds.csv": reports}, xlabel), envs["angle"]


def _run_flow(cfg: RunConfig) -> _Outcome:
    m = cfg.m
    config, _, polar0, label = _draw_problem(cfg, m, _FIG_KSTAR.get(m, 1.0), "small")
    tnorm = config.target_norm

    t_end = cfg.t_end if cfg.t_end is not None else min(
        20.0, convergence_horizon(m, tnorm, polar0.magnitude, polar0.angle)
    )
    # RK4 needs h |f'| below about 2.785; stiff deep starts get a smaller step.
    rate = _frozen_rate(m, tnorm ** (m + 1), polar0.magnitude)
    dt = cfg.dt if cfg.dt is not None else min(1e-3, 1.0 / rate)
    if dt > t_end:
        raise ConfigError(f"dt must be <= t_end, got dt={dt} > t_end={t_end}")
    if t_end > _MAX_FLOW_STEPS * dt:
        raise ConfigError(f"flow needs {t_end / dt:.3g} RK4 steps of dt={dt:.3g} to reach "
                          f"t_end={t_end:.6g}, more than {_MAX_FLOW_STEPS}; set a shorter t_end")
    spec = FlowSpec(m=m, target_norm=tnorm, initial=polar0, t_end=t_end, dt=dt)
    traj = integrate_polar(spec, sample_every=_stride(round(t_end / dt)))
    return _check_bands(traj, config, polar0, label, ["magnitude", "angle"], None)[:2]


class _Descent(NamedTuple):
    """A descending run's problem, the inputs of its one `run_gd` call, and
    what else its plan settles for the runner: a figure run's band kinds, a
    re-anchored run's anchors, or a stopping-time run's angle band, eps and
    bracket-recipe checks."""

    config: NeuronConfig
    init: WeightState
    polar0: PolarState
    label: str
    dc: DescentConfig
    extra: object


def _figure_descent(cfg: RunConfig) -> _Descent:
    m = cfg.m
    # gd checks every band its depth has; a figure run, the one it names.
    kinds = {"figure-angle": ["angle"], "figure-magnitude": ["magnitude"]}.get(
        cfg.experiment, ["magnitude", "angle"] if m <= 1 else ["angle"])
    if "magnitude" in kinds and m >= 2:
        raise ConfigError("descent-side magnitude bands exist for m <= 1 only")
    _, n, steps = _resolve_scales(cfg)
    config, init, polar0, label = _draw_problem(cfg, m, _FIG_KSTAR.get(m, 1.0), "small")
    eta = cfg.eta if cfg.eta is not None else _FIG_ETA.get(m)
    if eta is None:
        raise ConfigError(f"no default step size for m={m}; set eta explicitly")
    dc = DescentConfig(eta=eta, steps=steps, mode="empirical", n_samples=n,
                       seed=cfg.seed, record_every=_stride(steps))
    return _Descent(config, init, polar0, label, dc, kinds)


def _run_descent_figure(plan: _Descent, traj: Trajectory) -> _Outcome:
    config, _, polar0, label, dc, kinds = plan
    checks, artifacts, ang_env = _check_bands(traj, config, polar0, label, kinds, dc.eta)
    ceiling = _ETA_CEILING * eta_threshold(ang_env)
    checks.append(_check("eta_regime", dc.eta <= ceiling, ceiling - dc.eta))
    return checks, artifacts


def _reanchor_descent(cfg: RunConfig) -> _Descent:
    m = cfg.m
    if m not in _REANCHOR:
        raise ConfigError("re-anchored magnitude bands exist for m in {0, 1} only")
    defaults = _REANCHOR[m]
    anchors = tuple(sorted(int(a) for a in cfg.anchors or defaults["anchors"]))
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
    return _Descent(config, init, polar0, label, dc, anchors)


def _run_reanchor(plan: _Descent, traj: Trajectory) -> _Outcome:
    """Descent run whose magnitude band is re-anchored at the plan's anchors.

    Each anchor writes its own bounds CSV; the bands must all hold and each
    later anchor must have strictly smaller worst margin over its window.
    """
    config, _, polar0, _, dc, anchors = plan
    base_env = BoundEnvelope("magnitude", config.m, config.target_norm, polar0.angle,
                             polar0.magnitude)
    checks: list[dict] = []
    worst_slacks: list[float] = []
    bounds: dict[str, dict[str, EnvelopeReport]] = {}
    times_list = list(traj.times)
    for anchor in anchors:
        idx = times_list.index(float(anchor))
        env = reanchored(base_env, traj, idx) if anchor else base_env
        check, rep = _band_check(traj, env, dc.eta, f"magnitude_envelope_anchor_{anchor}", True)
        checks.append(check)
        # How far the band ever sits from the trajectory: the later the
        # anchor, the tighter this must get ("latest bounds are tightest").
        worst_slacks.append(max(
            float(np.max(rep.uppers - rep.values)),
            float(np.max(rep.values - rep.lowers)),
        ))
        bounds[f"bounds_anchor_{anchor}.csv"] = {"magnitude": rep}

    tighten = all(b < a for a, b in zip(worst_slacks, worst_slacks[1:]))
    gaps = [a - b for a, b in zip(worst_slacks, worst_slacks[1:])]
    checks.append(_check("anchors_tighten", tighten, min(gaps) if gaps else 0.0))
    return checks, _run_files(traj, bounds, "step")


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
    u = rng.standard_normal(d)
    v = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    wedge = double_wedge_second_moment(u, v)
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

    return checks, {}


def _run_error_scaling(cfg: RunConfig) -> _Outcome:
    horizon = cfg.t_end if cfg.t_end is not None else 8.0
    etas = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    # The m = 1 frozen-gap flow at eps = 0 with a unit teacher from v0 = 0.5:
    # the upper magnitude band of the table is its exact solution.
    env = BoundEnvelope("magnitude", 1, 1.0, math.pi / 2, 0.5)
    c, g = _band_forms(env).upper[0]
    pairs = gd_error_scaling(c, g, lambda w: _frozen_ode_rhs(1, 1.0, w), etas, horizon)

    checks = []
    ratios = [a[1] / b[1] for a, b in zip(pairs, pairs[1:])]
    for (eta, _), ratio in zip(pairs, ratios):
        ok = 1.6 <= ratio <= 2.4
        checks.append(_check(f"halving_ratio_eta_{eta:g}", ok, min(ratio - 1.6, 2.4 - ratio)))
    slope = float(np.polyfit(np.log([p[0] for p in pairs]), np.log([p[1] for p in pairs]), 1)[0])
    checks.append(_check("log_log_slope", 0.8 <= slope <= 1.2, 0.2 - abs(slope - 1.0)))
    return checks, {"errors.csv": _csv("eta,max_error", pairs)}


def _stopping_descent(cfg: RunConfig) -> _Descent:
    """The run's descent; its extra is the angle band, eps and the bracket
    recipe's checks."""
    m = cfg.m if cfg.m is not None else 1
    config, init, polar0, label = _draw_problem(cfg, m, _FIG_KSTAR.get(m, 1.0), "middle")
    r, R, checks = _rr_recipe(label, polar0.magnitude, config.target_norm)
    env = BoundEnvelope("angle", m, config.target_norm, polar0.angle, polar0.magnitude,
                        r=r, R=R)
    eps = cfg.eps if cfg.eps is not None else 1e-2
    eta = cfg.eta if cfg.eta is not None else 0.005 * eta_threshold(env)
    T = stopping_time(env, eta, eps)
    if T > _MAX_POPULATION_STEPS:
        raise ConfigError(f"stopping-time certifies T = {T} population steps at eta={eta:.3g}, "
                          f"more than {_MAX_POPULATION_STEPS}; set a larger eta or eps")
    dc = DescentConfig(eta=eta, steps=T, mode="population", record_every=_stride(T))
    return _Descent(config, init, polar0, label, dc, (env, eps, checks))


def _run_stopping_time(plan: _Descent, traj: Trajectory) -> _Outcome:
    env, eps, recipe = plan.extra
    checks = list(recipe)
    final_angle = traj.states[-1].angle
    _bracket(checks, traj, env.r, env.R)
    checks.append(
        _check("angle_beats_target", final_angle > math.pi - eps,
               final_angle - (math.pi - eps))
    )

    rep = check_envelope(traj, env, 0.0, eta=plan.dc.eta)
    return checks, _run_files(traj, {"bounds.csv": {"angle": rep}}, "step")


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
        next call overwrites.

        The output layer's error is an outer product with one term per
        entry, so a broadcast multiply forms it exactly as a k = 1 product
        would. Each hidden layer's error multiplies by a contiguous copy of
        W.T, which the product reads faster than the strided transpose and
        sums in the same order.
        """
        e = np.subtract(self.forward(weights), self.y, out=self.e)
        np.divide(e, self.n, out=e)
        np.matmul(self.acts[-1].T, e[:, None], out=self.grads[-1])
        g = np.multiply(e[:, None], weights[-1].T, out=self.back[-1])
        for i in range(len(weights) - 2, -1, -1):
            np.multiply(g, np.greater(self.pres[i], 0.0, out=self.masks[i]), out=g)
            np.matmul(self.acts[i].T, g, out=self.grads[i])
            if i:
                g = np.matmul(g, np.ascontiguousarray(weights[i].T), out=self.back[i - 1])
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
            if not math.isfinite(nrm) or nrm > _BLOWUP:
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

    rows = [(t, nr, math.nan, ls) for t, nr, ls in zip(times, norms, losses)]
    return checks, {"trajectory.csv": _trajectory_csv(rows),
                    "plot.gp": _plot_script([], ["magnitude"], "step")}


# ---------------------------------------------------------------------------

class Experiment(NamedTuple):
    """A registered experiment kind: what it does, the config keys it cannot
    default, every key its runner reads (seed, output_dir and paper_scale
    apply to all), its runner and, for a descending kind, the plan of its
    one descent. A runner takes the config, or, when its kind has a plan,
    the plan and the trajectory of the plan's descent."""

    description: str
    required: frozenset[str]
    reads: frozenset[str]
    run: Callable[..., _Outcome]
    descent: Callable[[RunConfig], _Descent] | None = None


# The keys _draw_problem reads, plus the depth.
_PROBLEM_KEYS = frozenset({"m", "d", "init_scale", "target_scale"})
_DESCENT_KEYS = _PROBLEM_KEYS | {"n", "steps", "eta"}


EXPERIMENTS: dict[str, Experiment] = {
    "flow": Experiment(
        "integrate the reduced flow and check it against its analytic bands",
        frozenset({"m"}), _PROBLEM_KEYS | {"t_end", "dt"}, _run_flow),
    "gd": Experiment(
        "full-batch descent on sampled data, checked against descent-side bands",
        frozenset({"m"}), _DESCENT_KEYS, _run_descent_figure, _figure_descent),
    "figure-angle": Experiment(
        "angle dynamics of descent inside its analytic band",
        frozenset({"m", "init_scale"}), _DESCENT_KEYS, _run_descent_figure, _figure_descent),
    "figure-magnitude": Experiment(
        "magnitude dynamics of descent inside its analytic band (m <= 1)",
        frozenset({"m", "init_scale"}), _DESCENT_KEYS, _run_descent_figure, _figure_descent),
    "reanchor": Experiment(
        "descent magnitude bands re-anchored along the run; bands must tighten",
        frozenset({"m"}), _DESCENT_KEYS | {"anchors"}, _run_reanchor, _reanchor_descent),
    "lemma-verify": Experiment(
        "Monte Carlo verification of the Gaussian moment closed forms",
        frozenset(), frozenset({"d", "n"}), _run_lemma_verify),
    "error-scaling": Experiment(
        "flow-vs-descent substitution error as a function of step size",
        frozenset(), frozenset({"t_end"}), _run_error_scaling),
    "stopping-time": Experiment(
        "certified step count, then a run that must beat it",
        frozenset(), _PROBLEM_KEYS | {"eta", "eps"}, _run_stopping_time, _stopping_descent),
    "deep-general": Experiment(
        "depth-5 ReLU network; parameter norm must move monotonically",
        frozenset({"init_scale"}),
        frozenset({"init_scale", "d", "n", "steps", "eta", "target_scale"}), _run_deep_general),
}


def plan_descents(
    cfgs: Sequence[RunConfig],
) -> list[tuple[NeuronConfig, WeightState, DescentConfig]]:
    """The `run_gd` inputs of the descending runs among `cfgs`, in order, up
    to the first config whose plan raises; that config's own run raises the
    same error, and the runs after it do not start."""
    problems = []
    for cfg in cfgs:
        plan = EXPERIMENTS[cfg.experiment].descent
        if plan is None:
            continue
        try:
            p = plan(cfg)
        except Exception:  # the run re-plans and raises the same error at its turn
            break
        problems.append((p.config, p.init, p.dc))
    return problems


def run_experiment(cfg: RunConfig, memo: DescentMemo | None = None) -> ExperimentResult:
    """Run one experiment to completion: the frame of every run.

    Starts the clock; for a kind with a plan, takes the plan and runs its
    descent through `memo`, which a prefill or earlier runs may have filled
    (without one the run gets a fresh memo and shares nothing); calls the
    runner; then writes the runner's artifacts and report.json with the
    runtime.
    """
    t0 = time.monotonic()
    spec = EXPERIMENTS[cfg.experiment]
    memo = memo if memo is not None else DescentMemo()
    reused = memo.reused
    if spec.descent is None:
        checks, artifacts = spec.run(cfg)
    else:
        plan = spec.descent(cfg)
        checks, artifacts = spec.run(plan, memo.run(plan.config, plan.init, plan.dc))
    return _finalize(cfg, checks, artifacts, t0, memo.reused > reused)
