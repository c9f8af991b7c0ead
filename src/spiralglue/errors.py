"""Exception types shared across the package."""

from __future__ import annotations


class SpiralGlueError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SpiralGlueError):
    """A vector or matrix has a shape inconsistent with its space."""


class OutOfScheduleRange(SpiralGlueError):
    """A norm falls outside the range covered by a finite schedule."""


class FloatRangeExceeded(OverflowError):
    """Norms or radii that a schedule asks for leave the float range, from
    `level` on (the schedule's level count + 1 for the radius past its last
    level). An OverflowError, like every other overflow of the inputs: a
    schedule that cannot be represented, not a failed check."""

    def __init__(self, what: str, level: int):
        self.level = level
        super().__init__(f"{what} exceed the floating range from level {level} on")


class CertificationFailed(SpiralGlueError):
    """A candidate map violates the near-isometry sandwich on the certification set."""

    def __init__(self, map_index: int, vector_index: int, ratio: float):
        self.map_index = map_index
        self.vector_index = vector_index
        self.ratio = ratio
        super().__init__(
            f"map {map_index} failed certification on vector {vector_index}: "
            f"ratio {ratio!r} outside the allowed sandwich"
        )

    def fields(self) -> dict:
        return {
            "map_index": self.map_index,
            "vector_index": self.vector_index,
            "ratio": self.ratio,
        }


class NotStabilized(SpiralGlueError):
    """A spreading estimate did not settle within the requested tolerance."""


class BankExhausted(SpiralGlueError):
    """The greedy subsequence scan found no admissible next index at some
    level, after the indices it had already fixed. Another subsequence of
    the bank may still pass every level."""

    def __init__(self, level: int, direction, angle: float, achieved: float, threshold: float):
        self.level = level
        self.direction = direction
        self.angle = angle
        self.achieved = achieved
        self.threshold = threshold
        super().__init__(
            f"no admissible pair at level {level}: best achieved norm {achieved!r} "
            f"< threshold {threshold!r} (worst angle {angle!r})"
        )

    def fields(self) -> dict:
        """The fields, with the direction as a list (None when no check was
        judged)."""
        direction = None if self.direction is None else [float(x) for x in self.direction]
        return {
            "level": self.level,
            "direction": direction,
            "angle": self.angle,
            "achieved": self.achieved,
            "threshold": self.threshold,
        }


class BoundViolated(SpiralGlueError):
    """A verified inequality failed beyond tolerance, at the pair (x_id,
    y_id) when one pair broke it."""

    def __init__(self, name: str, slack: float, detail: str = "", pair=None):
        self.name = name
        self.slack = slack
        self.pair = pair
        msg = f"inequality '{name}' violated with slack {slack!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def fields(self) -> dict:
        """The fields, with the pair as a list (None when no one pair broke
        the inequality)."""
        pair = None if self.pair is None else list(self.pair)
        return {"name": self.name, "slack": self.slack, "pair": pair}


class NonPositiveLowerBound(SpiralGlueError):
    """Parameters are too large for the two-sided bounds to be meaningful."""
