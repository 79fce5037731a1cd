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
from typing import BinaryIO, Iterable, Iterator, Sequence

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
        object.__setattr__(self, "unit_labels", tuple(map(str, self.unit_labels)))
        object.__setattr__(self, "time_labels", tuple(map(str, self.time_labels)))
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
        return PanelData(
            y=np.delete(self.y, index, axis=0),
            x=np.delete(self.x, index, axis=0),
            unit_labels=self.unit_labels[:index] + self.unit_labels[index + 1 :],
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
    byte but LF or CRLF line ends, every row as wide as the header) is read
    from its bytes in blocks of whole lines. Its values are exact, as with
    ``float``: decimals of up to 19 digits are parsed by numpy, the rest by
    ``float``. Its labels are coded from their bytes, in any row order:
    each distinct label of a block is decoded and stripped once. Any other
    file, and any plain file that is not a valid panel, is read again from
    the start by the ``csv`` module, streaming rows to ``validate_panel``;
    that path alone raises data errors. The panel, and the class and
    message of every error, do not depend on which path ran.
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

    None means the file is not plain (see ``_plain_seps``) or is not a
    valid panel: the ``csv`` path then decides. The ``csv`` module splits
    a plain file at its commas and line ends alone, so each block's fields
    are the bytes between those separators. Its labels get the same codes
    as ``_code_labels`` gives, in any row order (``_label_codes``), and its
    values the same bits as ``float`` (``_parse_values``).
    """
    unit_index: dict[str, int] = {}
    time_index: dict[str, int] = {}
    unit_codes, time_codes, values = [], [], []
    with path.open("rb") as fh:
        header = fh.readline(_BLOCK_BYTES).removeprefix(codecs.BOM_UTF8)
        width = header.count(b",") + 1
        seps = _plain_seps(_padded(header), width) if header.endswith(b"\n") else None
        if seps is None or not _is_header(header[: seps[0, -1] - _WINDOW].decode("utf-8").split(",")):
            return None
        for block in _whole_line_blocks(fh):
            seps = None if block is None else _plain_seps(block, width)
            if seps is None:
                return None
            units, times = _label_codes(block, seps, unit_index, time_index)
            unit_codes.append(units)
            time_codes.append(times)
            parsed = _parse_values(block, seps)
            if parsed is None:
                return None
            values.append(parsed)
    n, t = len(unit_index), len(time_index)
    if n < 2 or t < 2:
        return None
    cell = np.concatenate(unit_codes) * t + np.concatenate(time_codes)
    values = np.concatenate(values)
    if len(cell) != n * t or np.bincount(cell).max() > 1 or not np.isfinite(values).all():
        return None
    return _assemble(values.reshape(n * t, width - 2), cell, tuple(unit_index), tuple(time_index))


def _padded(*parts: bytes) -> bytes:
    """``parts`` joined between ``_WINDOW`` '0' bytes, so that each value
    field has a full window before its end, and 8 NULs, so that each label
    has a word from its start. Positions in a block count this padding."""
    return b"".join((b"0" * _WINDOW, *parts, bytes(8)))


def _whole_line_blocks(fh: BinaryIO) -> Iterator[bytes | None]:
    """The rest of ``fh`` in ``_padded`` blocks of whole lines of about
    ``_BLOCK_BYTES``, each ending in a newline (one is added to an
    unterminated last line); the padding is a block's one copy. None stands
    for a line longer than a block and ends the blocks."""
    rest = b""
    # reads end at multiples of a block in the file, wherever ``fh`` starts
    while chunk := fh.read(_BLOCK_BYTES - fh.tell() % _BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield _padded(rest, memoryview(chunk)[:cut])
            rest = chunk[cut:]
        elif len(chunk) == _BLOCK_BYTES:
            yield None
            return
        else:
            rest += chunk
    if rest:
        yield _padded(rest, b"\n")


def _plain_seps(block: bytes, width: int) -> np.ndarray | None:
    """Where each field of ``block``'s lines ends, (lines, width), if the
    lines are plain; else None. ``block`` is ``_padded`` and its lines end
    in a newline.

    A field ends at a comma, at LF or at the CR of CRLF. Plain lines are
    strict UTF-8 with no quote, no control byte but LF and the CR of CRLF
    (the ``csv`` module of Python 3.10 rejects NUL), and exactly
    ``width - 1`` commas each, so none is blank. None of them is longer
    than ``csv.field_size_limit()``, so no field is.
    """
    raw = np.frombuffer(block, dtype=np.uint8)
    # one pass marks every control byte, quote and comma: all are at most
    # 0x2C, as are the space and !#$%&'()*+, which plain lines may hold
    marked = np.flatnonzero(raw[_WINDOW:-8] <= 0x2C) + _WINDOW
    kind = raw[marked]
    sep = (kind == 0x2C) | (kind == 0x0A) | (kind == 0x0D)
    other, marked, kind = kind[~sep], marked[sep], kind[sep]
    cr = kind == 0x0D
    # the LF of a CRLF ends no field: its CR, the separator before it, did
    ends = np.ones(len(kind), dtype=bool)
    ends[1:] = ~cr[:-1]
    seps, kind = marked[ends], kind[ends]
    if len(seps) % width or not (
        ((other >= 0x20) & (other != 0x22)).all() and (raw[marked[cr] + 1] == 0x0A).all()
    ):
        return None
    # each line is width - 1 commas, then its end
    seps, kind = seps.reshape(-1, width), kind.reshape(-1, width)
    newlines = seps[:, -1] + (kind[:, -1] == 0x0D)
    if not (
        (kind[:, :-1] == 0x2C).all()
        and (kind[:, -1] != 0x2C).all()
        and (np.diff(newlines, prepend=_WINDOW - 1) - 1).max() <= csv.field_size_limit()
    ):
        return None
    if not block.isascii():
        try:
            block.decode("utf-8")
        except UnicodeDecodeError:
            return None
    return seps


def _label_codes(
    block: bytes, seps: np.ndarray, unit_index: dict[str, int], time_index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """``_code_labels`` of the unit and of the time fields of ``block``'s lines."""
    line_end = seps[:-1, -1]
    starts = np.empty(len(seps), dtype=np.intp)
    starts[0] = _WINDOW
    starts[1:] = line_end + 1 + (np.frombuffer(block, dtype=np.uint8)[line_end] == 0x0D)
    return (
        _code_fields(block, starts, seps[:, 0], unit_index),
        _code_fields(block, seps[:, 0] + 1, seps[:, 1], time_index),
    )


def _code_fields(block: bytes, starts: np.ndarray, ends: np.ndarray, index: dict[str, int]) -> np.ndarray:
    """``_code_labels`` of the fields ``block[starts[r]:ends[r]]``, in any
    order: each distinct field is decoded and stripped once, in order of
    first appearance."""
    lengths = ends - starts
    # A key per field: its bytes as little-endian words, those past its end
    # zeroed. No plain line holds a NUL, so fields with equal keys are equal.
    words = np.ndarray((len(block) - 7,), dtype="<u8", buffer=block, strides=(1,))
    n_words = max(-(-int(lengths.max()) // 8), 1)
    keys = np.empty((len(starts), n_words), dtype=np.uint64)
    for j in range(n_words):
        # a word past the block's end is masked out whole
        at = np.minimum(starts + 8 * j, len(words) - 1)
        keys[:, j] = words[at] & _LOW_BYTES[np.clip(lengths - 8 * j, 0, 8)]
    keys = keys[:, 0] if n_words == 1 else keys.view(f"S{8 * n_words}")[:, 0]
    # only the first field of each run of equal keys is looked up
    is_head = np.concatenate(([True], keys[1:] != keys[:-1]))
    head = np.flatnonzero(is_head)
    _, first, inverse = np.unique(keys[head], return_index=True, return_inverse=True)
    order = np.argsort(first)
    at = head[first[order]]
    spans = map(slice, starts[at].tolist(), ends[at].tolist())
    # no plain line holds a newline; splitlines would also split at U+2028
    labels = b"\n".join(map(block.__getitem__, spans)).decode("utf-8").split("\n")
    codes = np.empty(len(order), dtype=np.intp)
    # strip can make two keys one label, and setdefault gives them one code
    codes[order] = [index.setdefault(label.strip(), len(index)) for label in labels]
    return codes[inverse][np.cumsum(is_head) - 1]


# Fields of the form -?D+(.D*)? or -?.D+ with 1 to _FAST_DIGITS digits
# are parsed from their bytes (Clinger 1990; Lemire 2021): the digits
# m < 10**19 are exact as uint64, and m / 10**f, f <= 19, is rounded once
# to a 64-bit significand and then to a double. Both roundings are
# monotone and every midpoint between two doubles has a 64-bit
# significand, so the double is float()'s unless the first rounding landed
# on such a midpoint. Those fields, and all others, go to float(). A long
# double of fewer bits parses no field here.
_FAST_DIGITS = 19 if np.finfo(np.longdouble).nmant >= 63 else 0
_WINDOW = 24  # bytes: a sign, 19 digits, a dot and leading zeros
_CHUNK = 1 << 13  # fields parsed at once: their temporaries stay small
_WORD_START = np.array([0, 8, 16])[:, None]  # of the window's three words
_LOW_BYTES = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)
_BYTE_WEIGHT = np.array([1.0, 2.0**64, 2.0**128])  # of a word of bytes 0 or 1
_ZEROS = np.uint64(0x3030303030303030)
# one power for each place of a dot; those of a fast field, 10**19 and
# below, are exact as doubles (5**19 < 2**53)
_POW10 = np.array([10.0**f for f in range(_WINDOW)]).astype(np.longdouble)


def _parse_values(block: bytes, seps: np.ndarray) -> np.ndarray | None:
    """``float`` of the value fields of ``block``'s lines, whose fields end
    at ``seps``, line by line; or None if one of them does not parse."""
    starts, ends = (seps[:, 1:-1] + 1).ravel(), seps[:, 2:].ravel()
    raw = np.frombuffer(block, dtype=np.uint8)
    # windows[e - _WINDOW] is the _WINDOW bytes before block[e], all inside
    # the padded block
    windows = np.ndarray((len(block) - _WINDOW + 1,), dtype=f"V{_WINDOW}", buffer=block, strides=(1,))
    out = np.empty(len(starts))
    fast = np.empty(len(starts), dtype=bool)
    for lo in range(0, len(starts), _CHUNK):
        s, e = starts[lo : lo + _CHUNK], ends[lo : lo + _CHUNK]
        # the three words of each field's window, one row each
        words = np.ascontiguousarray(windows[e - _WINDOW].view("<u8").reshape(-1, 3).T)
        out[lo : lo + len(s)], fast[lo : lo + len(s)] = _exact_values(words, e - s, raw[s] == 0x2D)
    slow = np.flatnonzero(~fast)
    if len(slow):
        # the value fields of the lines that hold one, from one split
        per_line = seps.shape[1] - 2
        lines, at = np.unique(slow // per_line, return_inverse=True)
        spans = map(slice, (seps[lines, 1] + 1).tolist(), seps[lines, -1].tolist())
        fields = b",".join(map(block.__getitem__, spans)).decode("utf-8").split(",")
        chosen = map(fields.__getitem__, (at * per_line + slow % per_line).tolist())
        try:
            out[slow] = np.fromiter(map(float, chosen), dtype=np.float64, count=len(slow))
        except ValueError:
            return None
    return out


def _exact_values(
    words: np.ndarray, length: np.ndarray, neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The values of the fields right-aligned in windows of three words,
    ``words[k]`` the k-th from the left, ``length`` bytes long and negative
    where ``neg``; and where they are exact: elsewhere they are garbage.
    ``words`` is overwritten."""
    lead = _WINDOW - length + neg  # bytes before the digits and dot
    # the column of the window's last dot (-1 if none): a sum of 256**column
    # over the dots has the binary exponent 8 * column + 1
    dots = _BYTE_WEIGHT @ (words.view(np.uint8) == 0x2E).view("<u8").astype(np.float64)
    dot = (np.frexp(dots)[1] - 1) >> 3
    has_dot = dot >= lead
    # the bytes before each field, and its sign, become leading zeros
    _set_bytes(words, _ZEROS, _LOW_BYTES.take(lead - _WORD_START, mode="clip"))
    # the bytes up to the dot move one to the right, over it
    shifted = words << np.uint64(8)
    shifted[1:] |= words[:-1] >> np.uint64(56)
    shifted[0] |= np.uint64(0x30)
    _set_bytes(words, shifted, _LOW_BYTES.take((dot + 1) * has_dot - _WORD_START, mode="clip"))
    del shifted
    words ^= _ZEROS  # digits as byte values, each below 10 if all are digits
    above_nine = words + np.uint64(0x7676767676767676)
    above_nine |= words
    above_nine &= np.uint64(0x8080808080808080)
    digits = length - neg - has_dot
    fast = (digits >= 1) & (digits <= _FAST_DIGITS) & (above_nine == 0).all(axis=0)
    del above_nine
    # eight digits a word, the first the highest (Lemire 2021)
    pairs = np.uint64(0x000000FF000000FF)
    high = words >> np.uint64(8)
    words *= np.uint64(10)
    words += high
    np.right_shift(words, np.uint64(16), out=high)
    high &= pairs
    high *= np.uint64(1 + (10000 << 32))
    words &= pairs
    words *= np.uint64(100 + (1000000 << 32))
    words += high
    words >>= np.uint64(32)
    exact = (words[0] * np.uint64(10**16) + words[1] * np.uint64(10**8) + words[2]).astype(np.longdouble)
    exact /= _POW10.take((_WINDOW - 1 - dot) * has_dot, mode="clip")
    value = exact.astype(np.float64)
    # A midpoint lies half the double's spacing from it, or a quarter below
    # it when the double is a power of two; every field a quarter from its
    # double goes to float() too.
    off = np.abs((exact - value).astype(np.float64)) / np.spacing(value)
    fast &= (off != 0.5) & (off != 0.25)
    np.negative(value, out=value, where=neg)
    return value, fast


def _set_bytes(words: np.ndarray, source: np.ndarray | np.uint64, mask: np.ndarray) -> None:
    """Set the bytes of ``words`` under ``mask`` to those of ``source``;
    ``mask`` is overwritten."""
    mask &= words ^ source
    words ^= mask


def _is_utf8(row: list[str]) -> bool:
    """False if ``row`` holds a surrogate, i.e. a byte that was not UTF-8."""
    try:
        "".join(row).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True
