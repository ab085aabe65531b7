"""Exception hierarchy shared by all atugv modules."""


class AtugvError(Exception):
    """Base class for every error raised by this package. Structured fields
    are keyword arguments kept as attributes: array routines set `index`
    (first failing element); the simulator adds `step`, `time` and `cell`;
    a config type names the `field` whose value it rejects."""

    index = step = time = cell = field = None

    def __init__(self, message, **fields):
        super().__init__(message)
        for name, value in fields.items():
            setattr(self, name, value)


class InvalidArgumentError(AtugvError, ValueError):
    """A scalar or vector argument violates a precondition."""


class DomainError(InvalidArgumentError):
    """A time query lies outside the planning horizon."""


class DegreeViolationError(AtugvError):
    """An interior cell does not have exactly three neighbors."""


class LayeringViolationError(AtugvError):
    """A cell lists a neighbor from its own or a later layer."""


class ReferenceOverlapError(AtugvError):
    """Cells overlap already in the reference configuration (minimum
    separation does not exceed the cell diameter); the `field` is
    `cell_radius`."""


class UnreachableSeparationError(AtugvError):
    """A commanded cell separation exceeds the full extension of the
    two-arm connection mechanism. `planner.joint_elbow_angles` names the
    `joint` as (interior cell, neighbor) and its interior `cell`, the planner
    the `time`; `kinematics.desired_elbow_angles` names joint 1 or 2."""

    joint = None


class InconsistentAnglesError(AtugvError):
    """The two elbow-angle constraints define circles that do not
    intersect; no cell position satisfies both."""


class UnsafePlanError(AtugvError):
    """A planned sample violates the principal-strain safety bound: the
    strain `field` has `value` below `bound` at sample `index`, which the
    planner gives a `time`."""

    value = bound = None


class ScenarioError(AtugvError):
    """A scenario file failed to parse or validate."""
