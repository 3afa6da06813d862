"""Exception types shared across the laboratory.

Every error raised on purpose by this package derives from LabError, so
callers (in particular the CLI) can distinguish expected failure modes from
genuine bugs.
"""
from __future__ import annotations


class LabError(Exception):
    """Base class for all deliberate errors raised by zmclab."""


class DomainError(LabError, ValueError):
    """A point or parameter lies outside the mathematical domain of validity,
    a coordinate singularity (r = 0, rho = 0) and an odd radial derivative
    on the axis included, or a run-configuration file or flag set fails to
    parse or validate.

    The message names the violated inequality, or the config line or
    override at fault.
    """


class ArityError(LabError, ValueError):
    """Data of the wrong size: too few points, or a state or table of the wrong shape."""


class DegeneracyError(LabError, ValueError):
    """The hyperbolicity/ellipticity discriminant fell to (or below) the
    degeneracy threshold, so the requested quantity is not defined."""


class StepFloorError(LabError, ArithmeticError):
    """An adaptive integrator halved its step below the configured floor."""


class NonFiniteError(LabError, ArithmeticError):
    """A NaN or infinity appeared in a computation; the message carries the
    location (stage, grid index) where it was first seen."""


class ConsistencyError(LabError, ValueError):
    """Redundant pieces of a state or a self-check disagree beyond their
    tolerance (e.g. the stored spatial-derivative array versus differences
    of u, or the mode pencil read at two branch radii)."""

