"""Werner mixtures: white noise shifts sudden death earlier."""

import numpy as np

from kerrdeco.analytics import werner_psi_curves
from kerrdeco.evolution import CavityParams, propagate
from kerrdeco.measures import concurrence, negativity
from kerrdeco.states import WernerPhi, initial_density

gamma = 4.0

# concurrence of the psi-type Werner state dies at a finite time once p < 1
print("weight   C(0)     time of sudden death (formula grid)")
ts = np.linspace(0.0, 2.0, 2001)
for p in (1.0, 0.8, 0.6, 0.4):
    c, _ = werner_psi_curves(gamma, p, ts)
    dead = np.argmax(c <= 0.0) if np.any(c <= 0.0) else None
    when = f"{ts[dead]:.4f}" if dead else "never (exponential tail)"
    print(f"{p:6.2f} {c[0]:8.4f}   {when}")

# the phi-type Werner family keeps C = N exactly, all p, all t
params = CavityParams(gamma1=gamma, gamma2=gamma, chi12=20.0)
worst = 0.0
for p in (0.4, 0.7, 1.0):
    rho = propagate(initial_density(WernerPhi(p, +1)), params, np.linspace(0.0, 1.0, 21))
    worst = max(worst, float(np.max(np.abs(concurrence(rho) - negativity(rho)))))
print(f"\nphi-type Werner: max |C - N| over p and t grids = {worst:.2e}")
