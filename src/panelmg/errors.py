"""Exception hierarchy.

DataError subclasses describe problems with the input panel itself and map to
CLI exit code 2; EstimationError subclasses describe numeric failures during
estimation or inference and map to exit code 3.
"""

from __future__ import annotations

from typing import Sequence


class PanelMgError(Exception):
    """Base class for all package errors."""


class DataError(PanelMgError):
    """The input data cannot form a valid balanced panel."""


class UnbalancedPanel(DataError):
    """A (unit, time) cell required for a balanced panel is missing."""


class DuplicateCell(DataError):
    """The same (unit, time) cell appears more than once."""


class NonFiniteValue(DataError):
    """A y or x value is NaN or infinite."""


class TooSmall(DataError):
    """The panel has fewer units or periods than the operation needs."""


class MalformedInput(DataError):
    """Records or CSV content that cannot be parsed into a panel at all."""


class EstimationError(PanelMgError):
    """Base class for numeric failures in estimation and inference."""


class SingularCapacitance(EstimationError):
    """The cross-section coupling matrix of the structured solve is singular."""


class RankDeficient(EstimationError):
    """A regressor design is rank deficient. ``units`` names the offenders."""

    def __init__(self, message: str, units: Sequence[str] = ()):
        super().__init__(message)
        self.units = tuple(units)


class TooFewPeriods(EstimationError):
    """T is too small to leave residual degrees of freedom per unit."""


class SingularSystem(EstimationError):
    """The ridge-shifted system is still numerically singular."""


class MethodMismatch(EstimationError):
    """Point estimates and jackknife covariance come from different methods."""


class DegenerateJackknife(EstimationError):
    """All leave-one-out estimates coincide; the jackknife spread is zero."""


class SingularOmegaDelta(EstimationError):
    """The jackknife covariance of the estimator contrast is not invertible."""


class OutOfRange(PanelMgError, ValueError):
    """A numeric argument lies outside its documented domain."""
