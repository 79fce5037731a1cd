"""Balanced-panel data model, ingestion, and the demeaning transforms.

All estimators in this package start from the same two transforms of a
balanced N x T panel:

* unit demeaning, which removes per-unit time averages, and
* double demeaning, which removes unit averages, period averages, and adds
  back the grand mean.

Double demeaning annihilates any additive two-way structure a_i + b_t
exactly, which is what lets slopes be estimated without ever materialising
dummy variables.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateCell,
    MalformedInput,
    NonFiniteValue,
    TooSmall,
    UnbalancedPanel,
)

__all__ = [
    "PanelData",
    "DemeanedPanel",
    "validate_panel",
    "double_demean",
    "read_csv",
]


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, order="C", copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PanelData:
    """A balanced panel of N units observed over T periods with K regressors.

    Parameters
    ----------
    y : ndarray, shape (N, T)
        Outcomes, rows ordered like ``unit_labels``, columns like
        ``time_labels``.
    x : ndarray, shape (N, T, K)
        Regressors, same ordering, last axis over regressors.
    unit_labels, time_labels : tuple of str
        Distinct labels for rows and columns.

    Instances are immutable: the arrays are private copies marked read-only,
    so a panel can be shared freely across threads or subsamples.
    """

    y: np.ndarray
    x: np.ndarray
    unit_labels: tuple[str, ...]
    time_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        y = _freeze(self.y)
        x = _freeze(self.x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "unit_labels", tuple(str(u) for u in self.unit_labels))
        object.__setattr__(self, "time_labels", tuple(str(t) for t in self.time_labels))
        if y.ndim != 2:
            raise MalformedInput(f"y must be 2-dimensional (N, T), got shape {y.shape}")
        if x.ndim != 3:
            raise MalformedInput(f"x must be 3-dimensional (N, T, K), got shape {x.shape}")
        n, t = y.shape
        if x.shape[:2] != (n, t):
            raise MalformedInput(
                f"x shape {x.shape[:2]} does not match y shape {(n, t)}"
            )
        if x.shape[2] < 1:
            raise MalformedInput("panel needs at least one regressor")
        if n < 2 or t < 2:
            raise TooSmall(f"panel must have N >= 2 and T >= 2, got N={n}, T={t}")
        if len(self.unit_labels) != n:
            raise MalformedInput(
                f"{len(self.unit_labels)} unit labels for {n} units"
            )
        if len(self.time_labels) != t:
            raise MalformedInput(
                f"{len(self.time_labels)} time labels for {t} periods"
            )
        if len(set(self.unit_labels)) != n:
            raise DuplicateCell("unit labels are not unique")
        if len(set(self.time_labels)) != t:
            raise DuplicateCell("time labels are not unique")
        if not np.isfinite(y).all():
            i, t_bad = np.argwhere(~np.isfinite(y))[0]
            raise NonFiniteValue(
                f"non-finite y at unit '{self.unit_labels[i]}', "
                f"time '{self.time_labels[t_bad]}'"
            )
        if not np.isfinite(x).all():
            i, t_bad, k = np.argwhere(~np.isfinite(x))[0]
            raise NonFiniteValue(
                f"non-finite x{k + 1} at unit '{self.unit_labels[i]}', "
                f"time '{self.time_labels[t_bad]}'"
            )

    @property
    def n_units(self) -> int:
        return self.y.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.x.shape[2]

    @classmethod
    def from_arrays(
        cls,
        y: np.ndarray,
        x: np.ndarray,
        unit_labels: Sequence[str] | None = None,
        time_labels: Sequence[str] | None = None,
    ) -> "PanelData":
        """Build a panel from arrays, generating labels when absent."""
        y = np.asarray(y, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[:, :, None]
        if unit_labels is None:
            unit_labels = tuple(f"u{i + 1}" for i in range(y.shape[0]))
        if time_labels is None:
            time_labels = tuple(f"t{t + 1}" for t in range(y.shape[1] if y.ndim == 2 else 0))
        return cls(y=y, x=x, unit_labels=tuple(unit_labels), time_labels=tuple(time_labels))

    def without_unit(self, index: int) -> "PanelData":
        """Return the panel with one unit removed (used by the jackknife)."""
        n = self.n_units
        if not 0 <= index < n:
            raise IndexError(f"unit index {index} out of range for N={n}")
        keep = [i for i in range(n) if i != index]
        return PanelData(
            y=self.y[keep],
            x=self.x[keep],
            unit_labels=tuple(self.unit_labels[i] for i in keep),
            time_labels=self.time_labels,
        )


@dataclass(frozen=True)
class DemeanedPanel:
    """Unit-demeaned and double-demeaned views of a panel.

    ``y_unit_dm``/``x_unit_dm`` have per-unit time means removed; ``y_dd``/
    ``x_dd`` additionally have per-period cross-section means removed (grand
    mean added back). Both transforms are exact annihilators: unit demeaning
    kills anything constant within a unit, double demeaning kills any
    a_i + b_t structure.
    """

    y_dd: np.ndarray
    x_dd: np.ndarray
    y_unit_dm: np.ndarray
    x_unit_dm: np.ndarray

    def __post_init__(self) -> None:
        # ``double_demean`` builds these arrays fresh and hands them over, so
        # they are marked read-only in place rather than copied.
        for name in ("y_dd", "x_dd", "y_unit_dm", "x_unit_dm"):
            getattr(self, name).flags.writeable = False

    @property
    def n_units(self) -> int:
        return self.y_dd.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y_dd.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.x_dd.shape[2]


def double_demean(panel: PanelData) -> DemeanedPanel:
    """Apply the within-unit and two-way-within transforms to a panel."""
    y, x = panel.y, panel.x
    y_unit = y - y.mean(axis=1, keepdims=True)
    x_unit = x - x.mean(axis=1, keepdims=True)
    # Removing period means of the unit-demeaned data equals the full
    # two-way projection: the grand mean of y_unit is already zero.
    y_dd = y_unit - y_unit.mean(axis=0, keepdims=True)
    x_dd = x_unit - x_unit.mean(axis=0, keepdims=True)
    return DemeanedPanel(y_dd=y_dd, x_dd=x_dd, y_unit_dm=y_unit, x_unit_dm=x_unit)


def _coerce_value(raw: object, what: str) -> float:
    try:
        return float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"cannot parse {what}: {raw!r}") from exc


def validate_panel(records: Iterable[Sequence[object]]) -> PanelData:
    """Assemble long-format records into a validated balanced panel.

    Parameters
    ----------
    records : iterable of sequences
        Each record is ``(unit, time, y, x1, ..., xK)``. Unit and time are
        treated as opaque labels; values may be numbers or numeric strings.
        Units and periods are ordered by first appearance.

    Returns
    -------
    PanelData

    Raises
    ------
    MalformedInput
        Empty input, ragged records, no regressor columns, unparseable values.
    DuplicateCell
        The same (unit, time) pair appears twice.
    UnbalancedPanel
        Some unit misses some period observed elsewhere.
    NonFiniteValue
        A parsed value is NaN or infinite.
    TooSmall
        Fewer than 2 units or 2 periods.
    """
    unit_order: dict[str, int] = {}
    time_order: dict[str, int] = {}
    cells: dict[tuple[int, int], tuple[float, ...]] = {}
    n_fields: int | None = None

    for row_no, rec in enumerate(records, start=1):
        rec = list(rec)
        if n_fields is None:
            n_fields = len(rec)
            if n_fields < 4:
                raise MalformedInput(
                    "records need at least 4 fields (unit, time, y, x1), "
                    f"got {n_fields}"
                )
        elif len(rec) != n_fields:
            raise MalformedInput(
                f"record {row_no} has {len(rec)} fields, expected {n_fields}"
            )
        unit = str(rec[0]).strip()
        time = str(rec[1]).strip()
        values = tuple(
            _coerce_value(v, f"value in record {row_no} (unit '{unit}', time '{time}')")
            for v in rec[2:]
        )
        ui = unit_order.setdefault(unit, len(unit_order))
        ti = time_order.setdefault(time, len(time_order))
        if (ui, ti) in cells:
            raise DuplicateCell(f"duplicate cell for unit '{unit}', time '{time}'")
        cells[(ui, ti)] = values

    if n_fields is None:
        raise MalformedInput("no records supplied")

    units = list(unit_order)
    times = list(time_order)
    n, t, k = len(units), len(times), n_fields - 3
    if n < 2 or t < 2:
        raise TooSmall(f"panel must have N >= 2 and T >= 2, got N={n}, T={t}")

    y = np.empty((n, t))
    x = np.empty((n, t, k))
    for ui in range(n):
        for ti in range(t):
            vals = cells.get((ui, ti))
            if vals is None:
                raise UnbalancedPanel(
                    f"missing observation for unit '{units[ui]}' at time '{times[ti]}'"
                )
            y[ui, ti] = vals[0]
            x[ui, ti, :] = vals[1:]

    return PanelData(y=y, x=x, unit_labels=tuple(units), time_labels=tuple(times))


def read_csv(path: str | Path) -> PanelData:
    """Read a panel from a CSV file with header ``unit,time,y,x1,...,xK``."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedInput(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        expected_x = [f"x{i}" for i in range(1, max(len(header) - 3, 0) + 1)]
        if len(header) < 4 or header[:3] != ["unit", "time", "y"] or header[3:] != expected_x:
            raise MalformedInput(
                f"{path}: malformed header {header!r}; expected "
                "unit,time,y,x1,...,xK"
            )
        rows = [row for row in reader if any(cell.strip() for cell in row)]
    return validate_panel(rows)
