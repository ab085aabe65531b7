"""Exception hierarchy shared by all atugv modules."""


class AtugvError(Exception):
    """Base class for every error raised by this package. Structured fields
    are keyword arguments kept as attributes: array routines set `index`
    (first failing element); the simulator adds `step`, `time` and `cell`."""

    index = step = time = cell = None

    def __init__(self, message, **fields):
        super().__init__(message)
        for name, value in fields.items():
            setattr(self, name, value)


class InvalidArgumentError(AtugvError, ValueError):
    """A scalar or vector argument violates a precondition."""


class DomainError(InvalidArgumentError):
    """A time query lies outside the planning horizon."""


class DecompositionError(AtugvError):
    """The matrix is singular or contains a reflection; no valid
    rotation/strain factorization exists."""


class DegreeViolationError(AtugvError):
    """An interior cell does not have exactly three neighbors."""


class LayeringViolationError(AtugvError):
    """A cell lists a neighbor from its own or a later layer."""


class ReferenceOverlapError(AtugvError):
    """Cells overlap already in the reference configuration
    (minimum separation does not exceed the cell diameter)."""


class UnreachableSeparationError(AtugvError):
    """A commanded cell separation exceeds the full extension of the
    two-arm connection mechanism. `joint` is 1 or 2 for a cell's
    actuated joints."""

    joint = None


class InconsistentAnglesError(AtugvError):
    """The two elbow-angle constraints define circles that do not
    intersect; no cell position satisfies both."""


class UnsafePlanError(AtugvError):
    """A planned sample violates the principal-strain safety bound: the
    strain `field` has `value` below `bound` at sample `index`, which the
    planner gives a `time`."""

    field = value = bound = None


class ScenarioError(AtugvError):
    """A scenario file failed to parse or validate."""
