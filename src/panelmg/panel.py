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

import codecs
import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
    so a panel can be shared freely across threads or subsamples. Its
    ``demeaned`` arrays and their per-unit Grams are computed on first use
    and kept, read-only too, so every estimate, ridge shift and fit of one
    panel reads one demeaning.
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

    @cached_property
    def demeaned(self) -> "DemeanedPanel":
        """``double_demean`` of this panel, computed once."""
        return double_demean(self)

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
    a_i + b_t structure. Those of a stack of panels carry its batch axes
    first.
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

    @cached_property
    def unit_gram(self) -> np.ndarray:
        """xdot_i' xdot_i (..., N, K, K), read-only: the blocks of mg and,
        scaled by 1/T and shifted, of the two-way system."""
        gram = self.x_unit_dm.swapaxes(-1, -2) @ self.x_unit_dm
        gram.flags.writeable = False
        return gram

    @cached_property
    def pooled_gram(self) -> np.ndarray:
        """xdd_i' xdd_i (..., N, K, K), read-only: summed, tw-pooled's Gram;
        their determinants give the ridge shift."""
        gram = self.x_dd.swapaxes(-1, -2) @ self.x_dd
        gram.flags.writeable = False
        return gram

    @property
    def n_units(self) -> int:
        return self.y_dd.shape[-2]

    @property
    def n_periods(self) -> int:
        return self.y_dd.shape[-1]

    @property
    def n_regressors(self) -> int:
        return self.x_dd.shape[-1]


def double_demean(panel: PanelData) -> DemeanedPanel:
    """Apply the within-unit and two-way-within transforms to a panel.

    ``panel`` may also be a stack of panels: anything with ``y`` (..., N, T)
    and ``x`` (..., N, T, K), leading batch axes first. Each panel of a stack
    is transformed by the same operations as alone, bit for bit.
    """
    y, x = panel.y, panel.x
    y_unit = y - y.mean(axis=-1, keepdims=True)
    x_unit = x - x.mean(axis=-2, keepdims=True)
    # Removing period means of the unit-demeaned data equals the full
    # two-way projection: the grand mean of y_unit is already zero.
    y_dd = y_unit - y_unit.mean(axis=-2, keepdims=True)
    x_dd = x_unit - x_unit.mean(axis=-3, keepdims=True)
    return DemeanedPanel(y_dd=y_dd, x_dd=x_dd, y_unit_dm=y_unit, x_unit_dm=x_unit)


def _coerce_value(raw: object, row_no: int, unit: str, time: str) -> float:
    try:
        return float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise MalformedInput(
            f"cannot parse value in record {row_no} (unit '{unit}', time '{time}'): {raw!r}"
        ) from exc


def _code_labels(raw: Iterable[object], index: dict[str, int]) -> np.ndarray:
    """Each label's code, after ``str`` and stripping. ``index`` maps labels
    to codes by first appearance and gains the labels it lacked."""
    labels = list(map(str.strip, map(str, raw)))
    for label in dict.fromkeys(labels):
        index.setdefault(label, len(index))
    return np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=len(labels))


def _assemble(
    values: np.ndarray, cell: np.ndarray, unit_labels: tuple[str, ...], time_labels: tuple[str, ...]
) -> PanelData:
    """The panel whose (unit, time) cell ``cell[r]`` holds record r's ``values[r]``."""
    n, t = len(unit_labels), len(time_labels)
    full = np.empty((n * t, values.shape[1]))
    full[cell] = values
    return PanelData(
        y=full[:, 0].reshape(n, t),
        x=full[:, 1:].reshape(n, t, values.shape[1] - 1),
        unit_labels=unit_labels,
        time_labels=time_labels,
    )


def validate_panel(records: Iterable[Sequence[object]]) -> PanelData:
    """Assemble long-format records into a validated balanced panel.

    Parameters
    ----------
    records : iterable of sequences
        Each record is ``(unit, time, y, x1, ..., xK)``. Unit and time are
        treated as opaque labels (converted with ``str`` and stripped);
        values may be numbers or anything ``float`` parses. Units and periods
        are ordered by first appearance. The iterable is read once, up to
        the first record of the wrong width; records are not held, only
        their labels and values. A MalformedInput raised by the iterable
        itself counts as an offending record in the place of the record it
        could not produce.

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

    The first offending record wins, and its number (counted from 1) is in
    the message. Within one record a wrong width comes before an unparseable
    value, which comes before a repeated cell. After those come too few
    units or periods, the first missing cell (units, then periods, in order
    of first appearance), and non-finite values.
    """
    units: list[object] = []
    times: list[object] = []
    raw: list[object] = []
    n_fields: int | None = None
    stop: MalformedInput | None = None
    try:
        for row_no, rec in enumerate(records, start=1):
            if len(rec) != n_fields:
                if n_fields is not None:
                    stop = MalformedInput(
                        f"record {row_no} has {len(rec)} fields, expected {n_fields}"
                    )
                    break
                n_fields = len(rec)
                if n_fields < 4:
                    break
            units.append(rec[0])
            times.append(rec[1])
            raw.extend(rec[2:])
    except MalformedInput as exc:
        # the iterable could not produce its next record
        stop = exc

    if n_fields is None:
        raise stop or MalformedInput("no records supplied")
    if n_fields < 4:
        raise MalformedInput(
            f"records need at least 4 fields (unit, time, y, x1), got {n_fields}"
        )
    n_rec, width = len(units), n_fields - 2
    unit_index: dict[str, int] = {}
    time_index: dict[str, int] = {}
    unit_idx = _code_labels(units, unit_index)
    time_idx = _code_labels(times, time_index)
    unit_labels, time_labels = tuple(unit_index), tuple(time_index)
    n, t = len(unit_labels), len(time_labels)

    def where(row: int) -> tuple[str, str]:
        return unit_labels[unit_idx[row]], time_labels[time_idx[row]]

    cell = unit_idx * t + time_idx

    counts = np.bincount(cell, minlength=n * t)
    repeat = None
    if counts.max() > 1:
        seen_before = np.ones(n_rec, dtype=bool)
        seen_before[np.unique(cell, return_index=True)[1]] = False
        repeat = int(np.argmax(seen_before))
    try:
        values = np.fromiter(map(float, raw), dtype=np.float64, count=len(raw))
    except (TypeError, ValueError, OverflowError):
        # Only now is each value parsed alone: the first that fails raises,
        # unless the first repeated cell is in an earlier record.
        stop = len(raw) if repeat is None else (repeat + 1) * width
        for i in range(stop):
            row = i // width
            _coerce_value(raw[i], row + 1, *where(row))
        if repeat is None:
            raise
    if repeat is not None:
        unit, time = where(repeat)
        raise DuplicateCell(f"duplicate cell for unit '{unit}', time '{time}'")
    if stop is not None:
        raise stop

    if n < 2 or t < 2:
        raise TooSmall(f"panel must have N >= 2 and T >= 2, got N={n}, T={t}")
    if n_rec < n * t:
        ui, ti = divmod(int(np.argmin(counts)), t)
        raise UnbalancedPanel(
            f"missing observation for unit '{unit_labels[ui]}' at time '{time_labels[ti]}'"
        )

    return _assemble(values.reshape(n_rec, width), cell, unit_labels, time_labels)


def read_csv(path: str | Path) -> PanelData:
    """Read a panel from a CSV file with header ``unit,time,y,x1,...,xK``.

    The file is UTF-8, with or without a byte-order mark. Rows whose cells
    are all blank are skipped. As in ``validate_panel``, the first offending
    record wins, and record numbers count non-blank data rows, not file
    lines. A row not as wide as the header ends the reading, as an offending
    record. A record holding bytes that are not UTF-8, or content the
    ``csv`` module cannot parse, is offending and raises MalformedInput.

    There are two paths. A plain file (no quotes, no blank rows, no control
    byte but LF or CRLF line ends, every row as wide as the header) is split
    at its commas in blocks of whole lines. Any other file, and any plain
    file that is not a valid panel, is read again from the start by the
    ``csv`` module, streaming rows to ``validate_panel``; that path alone
    raises data errors. The panel, and the class and message of every
    error, do not depend on which path ran.
    """
    path = Path(path)
    panel = _read_plain(path)
    if panel is not None:
        return panel
    try:
        return _read_csv(path, None)
    except UnicodeDecodeError as exc:
        bad_byte = MalformedInput(f"{path}: not UTF-8 text ({exc.reason})")
    # The decoder reads ahead of the records, so the bad byte may lie past
    # an earlier offending record. Read again with bad bytes kept as
    # surrogates, up to the first row holding one.
    return _read_csv(path, bad_byte)


def _is_header(fields: list[str]) -> bool:
    """True if the stripped ``fields`` are ``unit,time,y,x1,...,xK``, K >= 1."""
    names = [f.strip() for f in fields]
    expected_x = [f"x{i}" for i in range(1, len(names) - 2)]
    return len(names) >= 4 and names[:3] == ["unit", "time", "y"] and names[3:] == expected_x


def _read_csv(path: Path, bad_byte: MalformedInput | None) -> PanelData:
    """``read_csv`` through the ``csv`` module; with ``bad_byte``, the first
    row holding a byte that is not UTF-8 raises it."""
    errors = "strict" if bad_byte is None else "surrogateescape"
    with path.open(newline="", encoding="utf-8-sig", errors=errors) as fh:
        reader = csv.reader(fh)

        def unparseable(exc: csv.Error) -> MalformedInput:
            return MalformedInput(f"{path}: line {reader.line_num}: {exc}")

        def records() -> Iterator[list[str]]:
            try:
                for row in reader:
                    if "".join(row).strip():
                        yield row
            except csv.Error as exc:
                raise unparseable(exc) from None

        def until_bad_byte(rows: Iterable[list[str]]) -> Iterator[list[str]]:
            for row in rows:
                if not _is_utf8(row):
                    raise bad_byte
                yield row

        def as_wide_as_header(rows: Iterable[list[str]]) -> Iterator[list[str]]:
            for row_no, row in enumerate(rows, start=1):
                if len(row) != len(header):
                    raise MalformedInput(
                        f"record {row_no} has {len(row)} fields, expected {len(header)}"
                    )
                yield row

        try:
            header = next(reader)
        except StopIteration:
            raise MalformedInput(f"{path}: file is empty") from None
        except csv.Error as exc:
            raise unparseable(exc) from None
        if bad_byte is not None and not _is_utf8(header):
            raise bad_byte
        if not _is_header(header):
            raise MalformedInput(
                f"{path}: malformed header {[h.strip() for h in header]!r}; expected "
                "unit,time,y,x1,...,xK"
            )
        rows = records()
        if bad_byte is not None:
            rows = until_bad_byte(rows)
        return validate_panel(as_wide_as_header(rows))


# The plain-file reader works on blocks of whole lines of about this size,
# so its memory does not grow with the file beyond the parsed values.
_BLOCK_BYTES = 1 << 20


def _read_plain(path: Path) -> PanelData | None:
    """``read_csv`` of a plain file, or None.

    None means the file is not plain (see ``_plain_fields``) or is not a
    valid panel: the ``csv`` path then decides. The ``csv`` module splits
    a plain file at its commas and line ends alone, so ``str.split`` gives
    it the same fields, and the same labels and values follow from the
    same label coding and ``float``.
    """
    unit_index: dict[str, int] = {}
    time_index: dict[str, int] = {}
    unit_codes, time_codes, values = [], [], []
    width = 0
    for block in _whole_line_blocks(path):
        if block is None:
            return None
        if not width:
            block = block.removeprefix(codecs.BOM_UTF8)
            cut = block.index(b"\n") + 1
            header = _plain_fields(block[:cut], block.count(b",", 0, cut) + 1)
            if header is None or not _is_header(header):
                return None
            width, block = len(header), block[cut:]
        fields = _plain_fields(block, width) if block else []
        if fields is None:
            return None
        unit_codes.append(_code_labels(fields[::width], unit_index))
        time_codes.append(_code_labels(fields[1::width], time_index))
        del fields[::width]
        del fields[:: width - 1]
        try:
            values.append(np.fromiter(map(float, fields), dtype=np.float64, count=len(fields)))
        except ValueError:
            return None
    n, t = len(unit_index), len(time_index)
    if n < 2 or t < 2:
        return None
    cell = np.concatenate(unit_codes) * t + np.concatenate(time_codes)
    values = np.concatenate(values)
    if len(cell) != n * t or np.bincount(cell).max() > 1 or not np.isfinite(values).all():
        return None
    return _assemble(values.reshape(n * t, width - 2), cell, tuple(unit_index), tuple(time_index))


def _whole_line_blocks(path: Path) -> Iterator[bytes | None]:
    """The file's bytes in blocks of whole lines of about ``_BLOCK_BYTES``,
    each ending in a newline (one is added to an unterminated last line).
    None stands for a line longer than a block and ends the blocks."""
    with path.open("rb") as fh:
        rest = b""
        while chunk := fh.read(_BLOCK_BYTES):
            cut = chunk.rfind(b"\n") + 1
            if cut:
                yield rest + chunk[:cut]
                rest = chunk[cut:]
            elif len(chunk) == _BLOCK_BYTES:
                yield None
                return
            else:
                rest += chunk
    if rest:
        yield rest + b"\n"


def _plain_fields(block: bytes, width: int) -> list[str] | None:
    """The fields of ``block``'s lines, row by row, if the lines are plain;
    else None. ``block`` ends in a newline.

    Plain lines are strict UTF-8 with no quote, no control byte but LF and
    the CR of CRLF (the ``csv`` module of Python 3.10 rejects NUL), and
    exactly ``width - 1`` commas each, so none is blank. None of them is
    longer than ``csv.field_size_limit()``, so no field is.
    """
    raw = np.frombuffer(block, dtype=np.uint8)
    # one pass finds every control byte, comma and quote
    marked = np.flatnonzero((raw < 0x20) | (raw == 0x2C) | (raw == 0x22))
    kind = raw[marked]
    newline, cr, comma = kind == 0x0A, kind == 0x0D, kind == 0x2C
    ends = marked[newline]
    if not (
        (newline | cr | comma).all()
        and (raw[marked[cr] + 1] == 0x0A).all()
        and (np.diff(np.cumsum(comma)[newline], prepend=0) == width - 1).all()
        and (np.diff(ends, prepend=-1) - 1).max() <= csv.field_size_limit()
    ):
        return None
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if cr.any():
        text = text.replace("\r\n", "\n")
    fields = text.replace("\n", ",").split(",")
    del fields[-1]  # after the final newline
    return fields


def _is_utf8(row: list[str]) -> bool:
    """False if ``row`` holds a surrogate, i.e. a byte that was not UTF-8."""
    try:
        "".join(row).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True
