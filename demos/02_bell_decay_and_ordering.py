"""Damped Bell pairs: the two measures disagree about which decays faster.

The single-excitation pair psi keeps more concurrence than the
double-excitation pair phi at every t > 0, yet its negativity is the
smaller of the two. The two monotones rank the same pair of states in
opposite orders, so neither state can be converted into the other by
local operations alone.
"""

import numpy as np

from kerrdeco.evolution import CavityParams, propagate
from kerrdeco.measures import concurrence, negativity
from kerrdeco.states import BellPhi, BellPsi, initial_density

params = CavityParams(gamma1=4.0, gamma2=4.0, chi12=20.0)
psi0 = initial_density(BellPsi(+1))
phi0 = initial_density(BellPhi(+1))

gts = np.linspace(0.0, 2.0, 9)
rho_psi = propagate(psi0, params, gts / 4.0)
rho_phi = propagate(phi0, params, gts / 4.0)
columns = (concurrence(rho_psi), concurrence(rho_phi), negativity(rho_psi), negativity(rho_phi))

print("gamma*t   C(psi)   C(phi)   N(psi)   N(phi)   ordering")
for gt, c1, c2, n1, n2 in zip(gts, *columns):
    tag = "C: psi first, N: phi first" if c1 > c2 and n1 < n2 else "agree"
    print(f"{gt:7.2f} {c1:8.5f} {c2:8.5f} {n1:8.5f} {n2:8.5f}   {tag}")

# closed forms at the reference point gamma*t = 0.5
print(f"\nat gamma*t = 0.5: C(psi) = e^-0.5 = {np.exp(-0.5):.5f}, "
      f"C(phi) = e^-1 = {np.exp(-1.0):.5f}")
