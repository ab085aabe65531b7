"""Exception hierarchy shared by all atugv modules."""


class AtugvError(Exception):
    """Base class for every error raised by this package. Structured fields
    are keyword arguments kept as attributes: array routines set `index`
    (first failing element); the simulator adds `step`, `time` and `cell`,
    and a joint error its `joint`; a config type, or the scenario loader at
    the key it reads, names the `field` it rejects; the strain verdict and
    a length bound add the `value` and the `bound` it fails."""

    index = step = time = cell = field = joint = value = bound = None

    def __init__(self, message, **fields):
        super().__init__(message)
        for name, value in fields.items():
            setattr(self, name, value)


class InvalidArgumentError(AtugvError, ValueError):
    """An argument violates a precondition: a value out of its range, a time
    outside the planning horizon, a cell graph that is not layered (an
    interior cell without exactly three neighbors from earlier layers) or
    whose reference overlaps (`field` `cell_radius`), or a scenario file that
    does not parse. A config type names the `field` it rejects; the loader
    names the key, keeping the config type's error as `__cause__`."""


class UnreachableSeparationError(AtugvError):
    """A commanded cell separation exceeds the full extension of the
    two-arm connection mechanism. `planner.reach_error` names the `joint` as
    (interior cell, neighbor) and its interior `cell`, `plan` and `run` the
    `time`; `kinematics.desired_elbow_angles` names joint 1 or 2."""


class InconsistentAnglesError(AtugvError):
    """The two elbow-angle constraints define circles that do not
    intersect; no cell position satisfies both."""


class UnsafePlanError(AtugvError):
    """A planned sample violates the principal-strain safety bound: the
    strain `field` has `value` below `bound` at sample `index`, which the
    planner gives a `time`."""
