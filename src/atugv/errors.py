"""Exception hierarchy shared by all atugv modules."""


class AtugvError(Exception):
    """Base class for every error this package raises, or returns as a plan
    verdict. Structured fields are keyword arguments kept as attributes:
    array routines set `index`, a tuple whose first entry is the failing row;
    the simulator adds `step`, `time` and `cell`, and a joint error its
    `joint`; a config type, or the scenario loader at the key it reads, names
    the `field` it rejects; the strain and reach verdicts and a bound on an
    input add the `value` and the `bound` it fails."""

    index = step = time = cell = field = joint = value = bound = None

    def __init__(self, message, **fields):
        super().__init__(message)
        for name, value in fields.items():
            setattr(self, name, value)


class InvalidArgumentError(AtugvError, ValueError):
    """An argument violates a precondition: a value out of its range, a cell
    graph that is not layered (an interior cell without exactly three
    neighbors from earlier layers) or whose reference overlaps (`field`
    `cell_radius`), or a scenario file that does not parse. A config type
    names the `field` it rejects; the loader names the key, keeping the
    config type's error as `__cause__`."""


class InfeasibleMotionError(AtugvError):
    """A motion the mechanism cannot carry: `planner.reach_error` builds it
    for a joint beyond reach, naming the `joint` as (interior cell,
    neighbor) and its interior `cell`; `kinematics.resolve_unpowered_position`
    builds it, with no `joint`, for an unpowered cell it cannot place.
    `plan` (which returns it) and `run` (which raises it) add the `time`."""


class UnsafePlanError(AtugvError):
    """A planned sample violates the principal-strain safety bound: the
    strain `field` has `value` below `bound` at sample `index[0]`, which the
    planner gives a `time`. Returned as the plan's verdict, never raised."""
