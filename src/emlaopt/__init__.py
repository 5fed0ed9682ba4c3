"""Electromechanical linear actuation: modeling, efficiency mapping,
closed-chain manipulator dynamics, efficiency-driven bilevel trajectory
optimization, and robust decomposed tracking control."""

__version__ = "0.1.0"

from .bilevel import (
    BilevelConfig,
    BilevelResult,
    efficiency_summary,
    map_eta_fns,
    quartile_occupancy,
    samples_outside_map,
    solve_outer,
    total_efficiency,
)
from .bspline import basis_matrices, clamped_knots
from .chain import ClosedChainGeometry, StrokeRangeError
from .control import (
    DisturbanceProfile,
    StabilityAudit,
    SubsystemGains,
    TrackingTraces,
    adaptive_rate,
    feedback_gain,
    lyapunov_audit,
    nominal_disturbance,
    published_gains,
    simulate_tracking,
    tracking_errors,
)
from .drivetrain import DriveTrainParams, equivalent_params, linear_stiffness, rotary_linear_map
from .effmap import EfficiencyMap, EmlaModel, build_efficiency_map, map_from_json, map_to_csv, map_to_json
from .losses import DriveConfig, LossBreakdown, efficiency, loss_breakdown
from .manipulator import (
    ChainModel,
    ClosedChainStage,
    RigidBodyParams,
    SingularConfigurationError,
    TelescopeStage,
    potential_energy,
    rnea,
)
from .pmsm import (
    PmsmParams,
    dq_voltages,
    current_derivatives,
    electromagnetic_torque,
    torque_to_iq,
)
from .statespace import emla_rhs, stack_params
from .trajopt import (
    NlpProblem,
    TrajectoryResult,
    criterion_effort,
    criterion_power,
    solve_inner,
)
