"""Sturm-Liouville spectra, eigenfunction zeros, and zero migration.

Solves -y'' + q(x) y = mu y on [0, pi] with separated boundary conditions
parameterised by angles, for any integrable q (singular-but-integrable
included).  Provides eigenvalue location, the two-variable eigenvalues
function mu(gamma, delta), eigenfunction zeros with analytic dx/dmu
velocities, integral self-checks, and boundary-angle sweep tracing.
"""

from .errors import (
    BracketFailure,
    ConfigError,
    CountMismatch,
    DegenerateRatio,
    DomainMismatch,
    EventNotFound,
    LinkAmbiguity,
    MeshTooCoarse,
    MonotonicityViolation,
    NonFinite,
    NonIntegrableExponent,
    NonMonotoneTable,
    SLZerosError,
    SlopeUnderflow,
    SolverFault,
    UnknownKind,
)
from .oscillation import (
    ZeroRecord,
    find_zeros,
    identity_residual,
)
from .potential import Potential, parse_potential
from .shooting import (
    DEFAULT_CELLS,
    EndpointConditions,
    PhaseRecord,
    SolutionTrajectory,
    left_conditions,
    propagate,
    right_conditions,
)
from .spectrum import (
    BoundaryParams,
    Eigenpair,
    EvfCoordinates,
    evf,
    evf_grid,
    find_eigenvalue,
)
from .sweep import SweepPlan, SweepResult, ZeroTrajectory, detect_transition, run_sweep

__version__ = "0.1.0"
