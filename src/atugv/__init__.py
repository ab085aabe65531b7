"""Motion planning and simulation for affine-transformable multi-cell
ground vehicles."""

from .affine import (
    GeneralizedCoordinates,
    apply,
    jacobian,
    rotation_matrix,
    strain_matrix,
)
from .errors import (
    AtugvError,
    InconsistentAnglesError,
    InvalidArgumentError,
    UnreachableSeparationError,
    UnsafePlanError,
)
from .kinematics import (
    desired_elbow_angles,
    elbow_angle,
    resolve_unpowered_position,
    separation_from_angle,
)
from .network import (
    CellGraph,
    ReferenceConfiguration,
    barycentric_weights,
    min_separation,
    solve_reference_positions,
)
from .planner import (
    PlanSpec,
    blend,
    coordinates_at,
    desired_positions,
    plan,
    validate_coordinates,
)
from .scenario import Scenario, bundled_scenario_path, load_scenario, load_scenario_text
from .simulator import (
    SimConfig,
    SimulationTrace,
    resolve_unpowered,
    run,
    step,
    velocity_command,
)

__version__ = "0.1.0"
