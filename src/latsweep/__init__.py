"""Quasistatic stress evolution of elastic-perfectly-plastic lattice
spring models via sweeping processes: time-stepping and event-based
integrators, in full and reduced dimensions."""

from .analysis import AnalysisReport, macro_metrics, stress_strain_curve, total_stress
from .assembly import (
    AssembledSystem,
    RigidityReport,
    SystemDims,
    assemble,
    compatibility_matrix,
    validate_assumptions,
)
from .catchup import TimePartition, catchup
from .errors import (
    AssumptionError,
    ConeProjectionError,
    DegenerateMetricsError,
    DegenerateSpringError,
    InfeasibleSetError,
    InitialConditionError,
    InvalidInputError,
    InvalidStateError,
    LatSweepError,
    SafeLoadError,
    SchemaError,
    UnsupportedLoadError,
)
from .generators import (
    build_example1,
    build_tri_grid_with_hole,
    build_triangular_periodic,
    example1_prestressed_stress,
)
from .io import load_network, save_network
from .lattice import LatticeDefinition, LoadSchedule
from .leapfrog import event_velocity, leapfrog, tangent_cone
from .linalg import nullspace_basis, numerical_rank, pseudoinverse, weighted_gram
from .projection import (
    PolyhedralSet,
    ProjectionResult,
    find_feasible_point,
    project,
    project_cone,
)
from .sweeping import (
    MovingSetSpec,
    Space,
    SweepingState,
    build_moving_set,
    initial_state,
    safe_load_check,
)
from .trajectory import EventRecord, Trajectory

__version__ = "0.1.0"
