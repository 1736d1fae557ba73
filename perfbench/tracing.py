"""Span recording around the public functions of the reluflow layers.

The wrappers live here, not in the package: `install` replaces every public
function of the traced modules on each module attribute where a caller looks
it up (``reluflow.experiments.run_gd``, ``reluflow.bounds.epsilon_gap``,
``reluflow.cli.run_experiment`` ...), and `uninstall` puts the originals
back. Spans stay in flat in-memory arrays until the run ends.

A span records the function, its start and end, the span that was open when
it began (its parent), the operation id the benchmark set, whether it raised,
and a work count derived from the call's arguments (RK4 steps, GD steps,
samples, band points). It also records when the wrapper was entered and left:
the wrapper's own bookkeeping before the start and after the end runs inside
the caller's span, and the analysis takes it back out.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("population", "flow", "bounds", "descent", "montecarlo", "experiments", "cli")


def _bound(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _steps(t_end: float, dt: float) -> int:
    # Same count the integrators use: max(1, round(t_end / dt)).
    return max(1, round(t_end / dt))


def _probe_polar(a):
    return "", _steps(a["spec"].t_end, a["spec"].dt), 0.0


def _probe_vector(a):
    return "", _steps(a["t_end"], a["dt"]), 0.0


def _probe_gd(a):
    return a["dc"].mode, a["dc"].steps, 0.0


def _probe_curve(a):
    env = a["env"]
    sweep = env.kind == "magnitude" and env.m >= 2
    return ("sweep" if sweep else "closed"), len(a["times"]), 0.0


def _probe_tau(a):
    return "", float(a["tau"]), 0.0


def _probe_ode(a):
    return f"dt={a['dt']:g}", float(a["tau"]), 0.0


def _probe_mc_u(a):
    d = len(a["u"])
    return "", a["n"], 8.0 * a["n"] * d


def _probe_mc_config(a):
    return "", a["n"], 8.0 * a["n"] * a["config"].d


def _probe_concentration(a):
    # Two (trials, d) arrays of normals per call.
    return "", a["trials"], 16.0 * a["trials"] * a["d"]


# (module, function) -> probe returning (variant, units, computed bytes).
PROBES = {
    ("flow", "integrate_polar"): _probe_polar,
    ("flow", "integrate_vector"): _probe_vector,
    ("descent", "run_gd"): _probe_gd,
    ("bounds", "envelope_curve"): _probe_curve,
    ("bounds", "frozen_gap_magnitude_implicit"): _probe_tau,
    ("bounds", "frozen_gap_magnitude_ode"): _probe_ode,
    ("montecarlo", "mc_half_space_moment"): _probe_mc_u,
    ("montecarlo", "mc_double_wedge_moment"): _probe_mc_u,
    ("montecarlo", "mc_relu_product"): _probe_mc_u,
    ("montecarlo", "mc_population_loss"): _probe_mc_config,
    ("montecarlo", "mc_population_gradient"): _probe_mc_config,
    ("montecarlo", "angle_concentration"): _probe_concentration,
}

# Spans of these functions start a new operation id (one config run).
OP_ENTRIES = {("experiments", "run_experiment"), ("experiments", "reanchor_experiment")}


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []  # "layer.function", indexed by function id
        self.fid = array("i")
        self.enter = array("d")
        self.start = array("d")
        self.end = array("d")
        self.leave = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.raised = array("b")
        self.units = array("d")
        self.nbytes = array("d")
        self.variant: dict[int, str] = {}  # span index -> variant tag
        self.stack: list[int] = []
        self.current_op = -1
        self.entry_fids: set[int] = set()
        self._wrappers: dict = {}  # original function -> its wrapper
        self._saved: list[tuple[object, str, object]] = []

    def next_op(self) -> None:
        """Start a new operation id for the spans that follow."""
        self.current_op += 1

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, fid: int, probe):
        tr = self
        perf = time.perf_counter
        entries = self.entry_fids

        def traced(*args, **kwargs):
            enter = perf()
            idx = len(tr.start)
            parent = tr.stack[-1] if tr.stack else -1
            # A nested entry (run_experiment -> reanchor_experiment) is the
            # same operation.
            if fid in entries and (parent < 0 or tr.fid[parent] not in entries):
                tr.current_op += 1
            if probe is not None:
                variant, units, nbytes = probe(_bound(fn, args, kwargs))
                if variant:
                    tr.variant[idx] = variant
            else:
                units, nbytes = 1.0, 0.0
            tr.fid.append(fid)
            tr.parent.append(parent)
            tr.op.append(tr.current_op)
            tr.units.append(units)
            tr.nbytes.append(nbytes)
            tr.raised.append(0)
            tr.end.append(0.0)
            tr.leave.append(0.0)
            tr.enter.append(enter)
            tr.stack.append(idx)
            tr.start.append(perf())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tr.raised[idx] = 1
                raise
            finally:
                tr.end[idx] = perf()
                tr.stack.pop()
                tr.leave[idx] = perf()

        return functools.wraps(fn)(traced)

    def _build(self) -> None:
        for layer in LAYERS:
            mod = sys.modules[f"reluflow.{layer}"]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                fid = len(self.names)
                self.names.append(f"{layer}.{name}")
                if (layer, name) in OP_ENTRIES:
                    self.entry_fids.add(fid)
                self._wrappers[obj] = self._wrap(obj, fid, PROBES.get((layer, name)))

    def install(self) -> None:
        """Wrap every public function of the traced layers at every lookup site."""
        if not self._wrappers:
            self._build()
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "reluflow" or modname.startswith("reluflow.")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, self._wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        variants = np.array([self.variant.get(i, "") for i in range(n)], dtype=str)
        return {
            "names": np.array(self.names, dtype=str),
            "fid": np.frombuffer(self.fid, dtype=np.int32).copy(),
            "enter": np.frombuffer(self.enter, dtype=np.float64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "leave": np.frombuffer(self.leave, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "units": np.frombuffer(self.units, dtype=np.float64).copy(),
            "bytes": np.frombuffer(self.nbytes, dtype=np.float64).copy(),
            "variant": variants,
        }


# ---------------------------------------------------------------------------
# analysis


class SpanTable:
    """Per-span name, layer, duration and self time, with the sums over them.

    Durations are corrected for tracing: each wrapped call's bookkeeping
    outside its own start and end (`cost`, measured per span) is charged to
    the spans around it, so it is subtracted from every ancestor's duration.
    Self times then hold the layer's own work only.
    """

    def __init__(self, a: dict[str, np.ndarray]) -> None:
        self.a = a
        names = list(a["names"])
        self.name = np.array(names, dtype=object)[a["fid"]]
        self.layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)[a["fid"]]
        start, end = a["start"], a["end"]
        self.cost = (start - a["enter"]) + (a["leave"] - end)
        # Spans are stored in start order, so a span's descendants are the
        # contiguous run of spans after it that start before it ends.
        self.stop = np.searchsorted(start, end, side="left")
        cum_cost = np.concatenate([[0.0], np.cumsum(self.cost)])
        index = np.arange(len(start))
        self.dur = (end - start) - (cum_cost[self.stop] - cum_cost[index + 1])
        parent = a["parent"]
        child_sum = np.zeros(len(self.dur))
        has_parent = parent >= 0
        np.add.at(child_sum, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child_sum

    def mask(self, name: str, variant: str | None = None) -> np.ndarray:
        m = self.name == name
        if variant is not None:
            m &= self.a["variant"] == variant
        return m

    def busy(self, layer: str) -> float:
        return float(self.self_time[self.layer == layer].sum())

    def subtree_busy(self, roots: np.ndarray) -> float:
        """Self time of the root spans plus their same-layer descendants."""
        idx = np.flatnonzero(roots)
        if not len(idx):
            return 0.0
        total = 0.0
        for layer in set(self.layer[idx]):
            own = idx[self.layer[idx] == layer]
            own_self = np.where(self.layer == layer, self.self_time, 0.0)
            cs = np.concatenate([[0.0], np.cumsum(own_self)])
            total += float(np.sum(cs[self.stop[own]] - cs[own]))
        return total
