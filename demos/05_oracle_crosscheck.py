"""Two independent routes to the same density matrix.

The analytic propagator sums a closed-form series; the oracle
integrates the master equation with fixed-step RK4 and knows nothing
about that series. Agreement in trace distance is the strongest
internal consistency check the package has, and `kerrdeco verify`
runs a battery of these. This demo does one by hand, including a
thermal reservoir case the analytic route refuses.
"""

import numpy as np

from kerrdeco.evolution import CavityParams, integrate_master, propagate, trajectory
from kerrdeco.linalg import trace_distance
from kerrdeco.states import BellPhi, WernerLike, initial_density

params = CavityParams(gamma1=4.0, gamma2=3.0, chi11=7.0, chi22=5.0, chi12=20.0)
rho0 = initial_density(BellPhi(+1))

print("unequal rates and all three Kerr couplings active:")
for t in (0.05, 0.2, 0.8):
    exact = propagate(rho0, params, t)
    rk4 = integrate_master(rho0, params, t)
    print(f"  t = {t:4.2f}: trace distance {trace_distance(exact.matrix, rk4):.2e}")

# a warm reservoir pumps photons upward, out of reach of the closed form;
# the oracle runs in a larger Fock space and projects back
warm = CavityParams(gamma1=4.0, gamma2=4.0, chi12=20.0, nbar1=0.2, nbar2=0.2)
traj = trajectory(WernerLike(0.8), warm, t_max=1.0, n_points=5,
                  engine="oracle", fock_dim=5)
print(f"\nthermal run flagged approximate: {traj.approximate}")
print("double-excitation population grows from zero:")
for t, rho in zip(traj.times, traj.states):
    print(f"  t = {t:4.2f}: rho[11,11] = {rho[3, 3].real:.5f}")
