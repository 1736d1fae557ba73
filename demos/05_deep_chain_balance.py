"""A five-factor chain trained as one neuron: conservation and monotone growth.

Gradient flow on a product of scalar layers conserves every pairwise
difference of squared layer norms. Start the chain unbalanced and those
gaps persist untouched while the loss drains; start it balanced and all
layers move in lockstep with the weight vector, every norm climbing
monotonically to the target.
"""
import numpy as np

from reluflow import NeuronConfig, WeightState, integrate_vector

rng = np.random.default_rng(21)
d, m, vstar = 10, 4, 1.0
tw = rng.standard_normal(d)
cfg = NeuronConfig(d=d, m=m, target_w=vstar * tw / np.linalg.norm(tw))

w0 = rng.standard_normal(d)
w0 *= 0.7 / np.linalg.norm(w0)

# --- unbalanced start: gaps are frozen in time -----------------------
hidden0 = (0.9, 0.5, 1.3, 0.8)
traj = integrate_vector(cfg, WeightState(w0, hidden0), t_end=12.0, dt=1e-3,
                        sample_every=400)

def gaps(ws):
    scales = np.concatenate([[np.linalg.norm(ws.w)], ws.hidden])
    return np.diff(scales**2)

drift = max(np.max(np.abs(gaps(ws) - gaps(traj.weight_states[0])))
            for ws in traj.weight_states)
print(f"unbalanced chain {hidden0}: loss {traj.losses[0]:.4f} -> {traj.losses[-1]:.2e}")
print(f"max drift of the {m} conserved gaps over the run: {drift:.2e}\n")

# --- balanced start: five norms, one curve ----------------------------
v0 = float(np.linalg.norm(w0))
traj = integrate_vector(cfg, WeightState(w0, (v0,) * m), t_end=12.0, dt=1e-3,
                        sample_every=400)

print("balanced chain, per-layer norms (w then 4 scalars):")
print("    t     " + "  ".join(f"layer{j}" for j in range(m + 1)))
for i in np.linspace(0, len(traj.times) - 1, 6).astype(int):
    ws = traj.weight_states[i]
    scales = [np.linalg.norm(ws.w), *np.abs(ws.hidden)]
    print(f"{traj.times[i]:6.1f}  " + "  ".join(f"{s:.4f}" for s in scales))

mags = traj.magnitudes
assert np.all(np.diff(mags) > -1e-12), "balanced norm should grow monotonically"
spread = max(np.ptp(np.abs(np.concatenate([[np.linalg.norm(ws.w)], ws.hidden])))
             for ws in traj.weight_states)
print(f"\nnorms stay equal to within {spread:.1e}; "
      f"common value {mags[-1]:.6f} -> target {vstar}")
