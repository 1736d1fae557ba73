"""Certified envelopes around the flow, and what re-anchoring buys.

The angle and norm curves never have to be integrated to be bounded:
closed-form envelopes pin them from above and below for all time, given
only the initial point. Anchoring the same envelopes at a later point of
the true trajectory tightens them.
"""
import math

import numpy as np

from reluflow import (
    BoundEnvelope,
    FlowSpec,
    PolarState,
    check_envelope,
    envelope_curve,
    integrate_polar,
    reanchored,
)

m, vstar, v0, phi0 = 1, 1.0, 0.5, math.pi / 2
spec = FlowSpec(m=m, target_norm=vstar, initial=PolarState(v0, phi0),
                t_end=30.0, dt=1e-3)
traj = integrate_polar(spec, sample_every=200)

# norm stays within [v0, vstar] here; r and R just need to bracket it
envs = {
    "angle": BoundEnvelope("angle", m, vstar, phi0, v0, r=0.45, R=1.1),
    "norm": BoundEnvelope("magnitude", m, vstar, phi0, v0),
}
for label, env in envs.items():
    lo, hi = envelope_curve(env, traj.times)
    x = traj.angles if label == "angle" else traj.magnitudes
    print(f"{label:5s} band, anchored at t=0:  "
          f"min slack below {np.min(x - lo):.2e}, above {np.min(hi - x):.2e}")
    rep = check_envelope(traj, env, slack=1e-9)
    assert rep.passed
print("(zero slack on the norm band is real: the two-layer norm flow solves "
      "in closed form,\n so its band has zero width)")

# re-anchor at t=10: same forms, fresher initial data, tighter band
k = int(np.searchsorted(traj.times, 10.0))
env = envs["angle"]
lo, hi = envelope_curve(env, traj.times)
re = reanchored(env, traj, k)
lo2, hi2 = envelope_curve(re, traj.times[k:])
shrink = 1 - np.mean((hi2 - lo2)[1:] / (hi - lo)[k + 1:])
print(f"\nre-anchoring the angle band at t=10 shrinks its width by "
      f"{shrink * 100:.1f}% on average over the tail")
