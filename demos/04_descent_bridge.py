"""From flow-time guarantees to step-count guarantees.

Everything proved for the continuous flow transfers to plain gradient
descent by substituting exp(-c t) -> (1 - c eta)^T. This script shows the
three faces of that bridge: discrete bands that real GD iterates respect,
a stopping-time certificate that the run actually meets, and the O(eta)
decay of the discretization error itself.
"""
import math

import numpy as np

from reluflow import (
    BoundEnvelope,
    DescentConfig,
    NeuronConfig,
    WeightState,
    envelope_curve,
    eta_threshold,
    gd_error_scaling,
    run_gd,
    stopping_time,
)

m, d, vstar, v0, phi0 = 1, 6, 1.0, 0.8, 1.9
rng = np.random.default_rng(3)
q, _ = np.linalg.qr(rng.standard_normal((d, d)))
cfg = NeuronConfig(d=d, m=m, target_w=vstar * q[:, 0])
theta0 = math.pi - phi0
w0 = v0 * (math.cos(theta0) * q[:, 0] + math.sin(theta0) * q[:, 1])
init = WeightState(w0, (v0,) * m)

env = BoundEnvelope("angle", m, vstar, phi0, v0, r=0.5, R=1.2)
thr = eta_threshold(env)
eta = 0.005 * thr
print(f"step-size threshold for this start: {thr:.4f}; using eta = {eta:.2e}")

eps = 2e-2
T = stopping_time(env, eta, eps)
print(f"certificate: after T = {T} steps the angle gap is below {eps}")

traj = run_gd(cfg, init, DescentConfig(eta=eta, steps=T, record_every=max(1, T // 40)))
gap = math.pi - traj.angles[-1]
print(f"actual gap after T steps:  {gap:.2e}  ({'met' if gap < eps else 'MISSED'})\n")

print("   step     angle       [certified band]")
lows, highs = envelope_curve(env, traj.times, eta)
for i in np.linspace(0, len(traj.times) - 1, 6).astype(int):
    T_i = int(traj.times[i])
    lo, hi = lows[i], highs[i]
    inside = lo <= traj.angles[i] <= hi
    print(f"{T_i:8d}  {traj.angles[i]:.6f}   [{lo:.6f}, {hi:.6f}]"
          f"{'' if inside else '   <- outside!'}")

# the bridge is first-order: halving eta halves the substitution error
pairs = gd_error_scaling(
    1.0, lambda x: math.sqrt(1.0 / (1.0 - (1.0 - 1.0 / v0**2) * x)),
    lambda w: -0.5 * w * (w * w - 1.0), (4e-3, 2e-3, 1e-3), 8.0
)
print("\ndiscretization error of the substitution rule (logistic norm flow):")
for eta_i, err in pairs:
    print(f"  eta = {eta_i:.0e}   sup error = {err:.3e}")
ratios = [a / b for (_, a), (_, b) in zip(pairs, pairs[1:])]
print(f"  consecutive ratios {[f'{r:.2f}' for r in ratios]} (first order => ~2)")
