"""Decoherence of two optical qubits in a lossy Kerr-nonlinear cavity.

A small numpy library with three routes over a time axis, one call each:
the analytic damped propagator, the master-equation oracle (fixed-step RK4
for quiet reservoirs, exact per-sector propagators for warm ones) and the
closed-form matrices. Around them sit two-qubit entanglement
measures, the decay curves and envelopes of the named state families and
a CSV-emitting command line (``kerrdeco``).
"""

from .analytics import (
    CrossCouplingEstimate,
    CurvePoint,
    EitParams,
    OrderingReport,
    bell_like_uncoupled_curves,
    bell_phi_curves,
    bell_psi_curves,
    check_ordering_inequalities,
    concurrence_envelope,
    estimate_cross_coupling,
    negativity_envelope,
    numeric_envelope,
    revival_times,
    unitary_pure_entanglement,
    werner_concurrence_envelope,
    werner_like_lossless_curve,
    werner_phi_curves,
    werner_psi_curves,
)
from .evolution import (
    CavityParams,
    Trajectory,
    closed_form_rho,
    integrate_master_grid,
    propagate,
    rj_factor,
    trajectory,
)
from .measures import (
    EntanglementReport,
    concurrence,
    eof,
    log_negativity,
    negativity,
    pure_concurrence,
    report,
)
from .states import (
    BellLike,
    BellPhi,
    BellPsi,
    CustomMixed,
    CustomPure,
    DensityMatrix2Q,
    InitialState,
    PlusPlus,
    PureState2Q,
    Separable,
    WernerLike,
    WernerPhi,
    WernerPsi,
    bell_like,
    bell_phi,
    bell_psi,
    initial_density,
    initial_densities,
    parse_initial,
    separable,
    to_density,
)

__version__ = "0.1.0"
