"""
Entanglement measures on familiar two-qubit states
===================================================

Concurrence, negativity, entanglement of formation and logarithmic
negativity for a handful of states whose values are known by heart:
Bell pairs give 1 across the board, product states give 0, and the
Werner mixture interpolates with weight p.
"""

import numpy as np

from kerrdeco.measures import report
from kerrdeco.states import WernerPsi, bell_psi, initial_density, separable, to_density

print("state                concurrence  negativity     eof  log-negativity")

for label, rho in [
    ("bell psi+", to_density(bell_psi(+1))),
    ("product |01>", to_density(separable(1, 0, 0, 1))),
    ("werner psi p=1.0", initial_density(WernerPsi(1.0, +1))),
    ("werner psi p=0.8", initial_density(WernerPsi(0.8, +1))),
    ("werner psi p=0.5", initial_density(WernerPsi(0.5, +1))),
    ("werner psi p=1/3", initial_density(WernerPsi(1.0 / 3.0, +1))),
]:
    r = report(rho)
    print(f"{label:<20} {r.concurrence:11.6f} {r.negativity:11.6f} "
          f"{r.eof:7.4f} {r.log_negativity:15.6f}")

# the Werner family is entangled exactly when p > 1/3, value (3p - 1)/2
p = np.linspace(0, 1, 6)
print("\nwerner initial concurrence vs (3p-1)/2, clamped at zero:")
for pi in p:
    r = report(initial_density(WernerPsi(float(pi), +1)))
    print(f"  p = {pi:.1f}: {r.concurrence:.6f}  (formula {max(0.0, (3 * pi - 1) / 2):.6f})")
