"""
Simulating the benchmark systems
================================

Both built-in systems have the form x+ = T(x) + noise.  Trajectories are
bit-reproducible functions of (system, x0, steps, seed); initial states
can be drawn uniformly from a domain using the same seed stream.
"""

import numpy as np

from koopest import (
    ClosedQuadraticParams,
    make_closed_quadratic,
    make_vanderpol,
    simulate,
    step_pairs,
    unit_box,
)

params = ClosedQuadraticParams(rho=0.2, mu=0.3, c=1.0)
system = make_closed_quadratic(params)  # unit Gaussian noise by default

ss = simulate(system, x0=np.array([1.0, 0.0]), steps=5, seed=42)
print("five noisy transitions from (1, 0):")
for x, y in zip(ss.xs, ss.ys):
    print(f"  {x} -> {y}")

# Same seed, same bits.
again = simulate(system, x0=np.array([1.0, 0.0]), steps=5, seed=42)
print("\nbit-identical on replay:", bool((ss.ys == again.ys).all()))

# transition is the bare map T(x), without noise; the origin is fixed.
print("T at the origin:", system.transition(np.zeros(2)))

# The Van der Pol variant advances by an Euler step of size dt with small
# additive noise; its lifted dynamics on degree-2 monomials are NOT closed.
vdp = make_vanderpol(dt=1e-4)
traj = simulate(vdp, None, steps=1000, seed=7, domain=unit_box(2))
print("\nvan der pol after 1000 steps:", traj.ys[-1])

# Independent pairs: one transition from each of many starting states.
starts = unit_box(2).sample(np.random.default_rng(0), 4)
pairs = step_pairs(system, starts, seed=3)
print("\nindependent pairs source tag:", pairs.source)
