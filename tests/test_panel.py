"""Panel construction, long-format validation, CSV ingestion, and demeaning."""

import csv
import decimal
import io
import math
import random
import re
import statistics
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panelmg import (
    DuplicateCell,
    MalformedInput,
    NonFiniteValue,
    PanelData,
    TooSmall,
    UnbalancedPanel,
    double_demean,
    read_csv,
    validate_panel,
)
import panelmg.panel as panel_module
from oracles import (
    literal_plain_seps,
    literal_validate_panel,
    projection_double_demean,
    random_panel,
)


def make_panel(seed=0, n=6, t=5, k=2):
    y, x, _ = random_panel(seed, n, t, k)
    return PanelData.from_arrays(y, x)


class TestPanelData:
    def test_from_arrays_generates_labels(self):
        p = make_panel(n=3, t=4, k=1)
        assert p.unit_labels == ("u1", "u2", "u3")
        assert p.time_labels == ("t1", "t2", "t3", "t4")
        assert (p.n_units, p.n_periods, p.n_regressors) == (3, 4, 1)

    def test_two_dimensional_x_gets_regressor_axis(self):
        y = np.arange(6.0).reshape(2, 3)
        p = PanelData.from_arrays(y, y + 1.0)
        assert p.x.shape == (2, 3, 1)

    def test_arrays_are_read_only_copies(self):
        y, x, _ = random_panel(1, 4, 4, 1)
        p = PanelData.from_arrays(y, x)
        with pytest.raises(ValueError):
            p.y[0, 0] = 99.0
        y[0, 0] = 99.0  # mutating the source must not reach the panel
        assert p.y[0, 0] != 99.0

    def test_rejects_too_small(self):
        with pytest.raises(TooSmall):
            PanelData.from_arrays(np.ones((1, 4)), np.ones((1, 4, 1)))
        with pytest.raises(TooSmall):
            PanelData.from_arrays(np.ones((4, 1)), np.ones((4, 1, 1)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(MalformedInput):
            PanelData.from_arrays(np.ones((3, 4)), np.ones((3, 5, 1)))
        with pytest.raises(MalformedInput):
            PanelData.from_arrays(np.ones((3, 4)), np.ones((3, 4, 0)))
        with pytest.raises(MalformedInput):
            PanelData.from_arrays(np.ones(4), np.ones((4, 1)))

    def test_rejects_label_mismatch_and_duplicates(self):
        y, x = np.ones((2, 3)), np.ones((2, 3, 1))
        with pytest.raises(MalformedInput):
            PanelData.from_arrays(y, x, unit_labels=("a",))
        with pytest.raises(DuplicateCell):
            PanelData.from_arrays(y, x, unit_labels=("a", "a"))
        with pytest.raises(DuplicateCell):
            PanelData.from_arrays(y, x, time_labels=("q1", "q1", "q2"))

    def test_non_finite_values_are_located(self):
        y, x, _ = random_panel(2, 3, 4, 2)
        y_bad = y.copy()
        y_bad[1, 2] = np.nan
        with pytest.raises(NonFiniteValue, match=r"unit 'u2', time 't3'"):
            PanelData.from_arrays(y_bad, x)
        x_bad = x.copy()
        x_bad[0, 3, 1] = np.inf
        with pytest.raises(NonFiniteValue, match=r"x2 at unit 'u1', time 't4'"):
            PanelData.from_arrays(y, x_bad)

    def test_without_unit(self):
        p = make_panel(n=4, t=3)
        sub = p.without_unit(1)
        assert sub.unit_labels == ("u1", "u3", "u4")
        assert np.array_equal(sub.y, p.y[[0, 2, 3]])
        assert np.array_equal(sub.x, p.x[[0, 2, 3]])
        assert sub.time_labels == p.time_labels
        assert p.n_units == 4  # original untouched
        with pytest.raises(IndexError):
            p.without_unit(4)

    @pytest.mark.parametrize("index", [0, 3, 6])
    def test_without_unit_matches_a_row_selection(self, index):
        p = make_panel(n=7, t=3, k=2)
        keep = [i for i in range(7) if i != index]
        sub = p.without_unit(index)
        assert sub.y.tobytes() == p.y[keep].tobytes()
        assert sub.x.tobytes() == p.x[keep].tobytes()
        assert sub.unit_labels == tuple(p.unit_labels[i] for i in keep)
        assert sub.time_labels == p.time_labels
        assert not sub.y.flags.writeable and not sub.x.flags.writeable


class TestDoubleDemean:
    def test_matches_projection_oracle(self):
        p = make_panel(seed=3, n=7, t=6, k=3)
        dp = double_demean(p)
        np.testing.assert_allclose(
            dp.y_dd, projection_double_demean(p.y), atol=1e-12
        )
        np.testing.assert_allclose(
            dp.x_dd, projection_double_demean(p.x), atol=1e-12
        )
        np.testing.assert_allclose(
            dp.y_unit_dm, p.y - p.y.mean(axis=1, keepdims=True), atol=1e-13
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent(self, seed):
        p = make_panel(seed=seed, n=5, t=4, k=1)
        dp = double_demean(p)
        again = double_demean(PanelData.from_arrays(dp.y_dd, dp.x_dd))
        np.testing.assert_allclose(again.y_dd, dp.y_dd, atol=1e-10)
        np.testing.assert_allclose(again.x_dd, dp.x_dd, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_shift_invariance(self, seed):
        p = make_panel(seed=seed, n=6, t=5, k=2)
        rng = np.random.default_rng(seed + 1)
        a = rng.normal(0.0, 5.0, p.n_units)
        b = rng.normal(0.0, 5.0, p.n_periods)
        shifted = PanelData.from_arrays(p.y + a[:, None] + b[None, :], p.x)
        np.testing.assert_allclose(
            double_demean(shifted).y_dd, double_demean(p).y_dd, atol=1e-9
        )

    def test_linearity(self):
        pa = make_panel(seed=10, n=5, t=5, k=1)
        pb = make_panel(seed=11, n=5, t=5, k=1)
        combo = PanelData.from_arrays(2.5 * pa.y - 0.75 * pb.y, pa.x)
        lhs = double_demean(combo).y_dd
        rhs = 2.5 * double_demean(pa).y_dd - 0.75 * double_demean(pb).y_dd
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_permutation_equivariance(self):
        p = make_panel(seed=12, n=8, t=4, k=2)
        perm = np.random.default_rng(0).permutation(p.n_units)
        permuted = PanelData.from_arrays(
            p.y[perm], p.x[perm], unit_labels=[p.unit_labels[i] for i in perm]
        )
        np.testing.assert_allclose(
            double_demean(permuted).y_dd, double_demean(p).y_dd[perm], atol=1e-12
        )


class TestValidatePanel:
    def test_orders_by_first_appearance(self):
        records = [
            ("b", "2001", 1.0, 2.0),
            ("a", "2000", 3.0, 4.0),
            ("b", "2000", 5.0, 6.0),
            ("a", "2001", 7.0, 8.0),
        ]
        p = validate_panel(records)
        assert p.unit_labels == ("b", "a")
        assert p.time_labels == ("2001", "2000")
        assert p.y[0, 0] == 1.0 and p.y[1, 1] == 3.0
        assert p.x[1, 0, 0] == 8.0

    def test_duplicate_cell(self):
        records = [("a", "1", 0, 0), ("a", "1", 1, 1), ("b", "1", 2, 2)]
        with pytest.raises(DuplicateCell, match=r"unit 'a', time '1'"):
            validate_panel(records)

    def test_missing_cell_names_unit_and_time(self):
        records = [
            ("a", "1", 0, 0),
            ("a", "2", 0, 0),
            ("b", "1", 0, 0),
        ]
        with pytest.raises(UnbalancedPanel, match=r"unit 'b' at time '2'"):
            validate_panel(records)

    def test_ragged_records(self):
        with pytest.raises(MalformedInput, match="record 2"):
            validate_panel([("a", "1", 0, 0), ("b", "1", 0)])

    def test_unparseable_value(self):
        with pytest.raises(MalformedInput, match="cannot parse"):
            validate_panel([("a", "1", "zero", 0), ("b", "1", 0, 0)])

    def test_empty_and_narrow_input(self):
        with pytest.raises(MalformedInput):
            validate_panel([])
        with pytest.raises(MalformedInput):
            validate_panel([("a", "1", 0)])

    def test_single_unit_rejected(self):
        with pytest.raises(TooSmall):
            validate_panel([("a", "1", 0, 0), ("a", "2", 0, 0)])


def ingest_outcome(load, source):
    """Panel bytes and labels, or the class and message of the error."""
    try:
        p = load(source)
    except Exception as exc:  # the class is part of what is compared
        return type(exc), str(exc)
    return p.y.tobytes(), p.x.tobytes(), p.unit_labels, p.time_labels


# Cells that parse, with Python's float rules: padding, underscores, numpy
# and integer types.
GOOD_CELLS = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.integers(-1000, 1000),
    st.floats(-1e3, 1e3).map(np.float64),
    st.sampled_from([" 2.5 ", "1_000", "-0.0", "3e2", "\t7"]),
)
# Cells that fail to parse or parse to a non-finite value.
BAD_CELLS = st.sampled_from(
    ["zero", "", " ", "1,5", None, "nan", "inf", "-Infinity", float("nan"), np.float64("inf")]
)


@st.composite
def faulty_records(draw):
    """A balanced panel's records with zero or more faults applied in turn."""
    n, t, k = draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.integers(1, 2))
    units = ["a", "b", "10", "x y"][:n]
    times = ["2000", "2001", "q3", "t4"][:t]
    records = [
        [u, s] + [draw(GOOD_CELLS) for _ in range(k + 1)] for u in units for s in times
    ]
    faults = ["ragged", "bad", "duplicate", "delete", "pad", "int-label", "shuffle"]
    for fault in draw(st.lists(st.sampled_from(faults), max_size=3)):
        if not records:
            break
        r = draw(st.integers(0, len(records) - 1))
        rec = list(records[r])
        if fault == "ragged":
            rec = rec[:-1] if draw(st.booleans()) else rec + ["1.0"]
        elif fault == "bad":
            if len(rec) > 2:  # two ragged cuts can leave only the labels
                rec[draw(st.integers(2, len(rec) - 1))] = draw(BAD_CELLS)
        elif fault == "duplicate":
            copy = rec[:2] + [draw(GOOD_CELLS) for _ in rec[2:]]
            records.insert(draw(st.integers(0, len(records))), copy)
        elif fault == "delete":
            del records[r]
            continue
        elif fault == "pad":
            col = draw(st.integers(0, 1))
            rec[col] = draw(st.sampled_from([" ", "  ", "\t"])) + str(rec[col]) + " "
        elif fault == "int-label":
            if rec[0] == "10":
                rec[0] = 10
        else:
            records = draw(st.permutations(records))
            continue
        records[r] = tuple(rec) if draw(st.booleans()) else rec
    return records


class TestValidateAgainstLiteralLoop:
    """``validate_panel`` against ``oracles.literal_validate_panel``."""

    @settings(max_examples=500, deadline=None)
    @given(faulty_records())
    @example([["a", "1", "0", "0"], ["a", "1", "x", "0"], ["b"]])  # parse before repeat
    @example([["a", "1", "0", "0"], ["a", "1", "0", "0"], ["b", "1", "x", "0"]])  # repeat first
    @example([["a", "1", "0", "0"], ["b", "1", "0"], ["a", "1", "0", "0"]])  # width first
    @example([["a", "1", "0", "0"], ["a", "2", "0", "0"]])  # too small before missing
    @example([["a", "1", "0", "0"], ["b", "2", "0", "0"], ["c", "1", "nan", "0"]])
    def test_same_panel_or_same_error(self, records):
        assert ingest_outcome(validate_panel, records) == ingest_outcome(
            literal_validate_panel, records
        )

    def test_stops_reading_at_the_first_ragged_record(self):
        def records():
            yield ("a", "1", 0, 0)
            yield ("b", "1", 0)
            raise AssertionError("read past the ragged record")

        with pytest.raises(MalformedInput, match="record 2 has 3 fields, expected 4"):
            validate_panel(records())

    def test_overflowing_integer_raises_like_float(self):
        records = [("a", "1", 10**400, 0), ("b", "1", 0, 0)]
        assert ingest_outcome(validate_panel, records) == ingest_outcome(
            literal_validate_panel, records
        )
        with pytest.raises(OverflowError):
            validate_panel(records)


class TestReadCsv:
    def write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        f = self.write(
            tmp_path / "p.csv",
            "unit,time,y,x1,x2\n"
            "a,1,1.0,2.0,3.0\n"
            "a,2,4.0,5.0,6.0\n"
            "\n"
            "b,1,7.0,8.0,9.0\n"
            "b,2,10.0,11.0,12.0\n",
        )
        p = read_csv(f)
        assert p.unit_labels == ("a", "b")
        assert p.n_regressors == 2
        assert p.y[1, 0] == 7.0
        assert p.x[0, 1, 1] == 6.0

    @pytest.mark.parametrize(
        "header",
        [
            "id,time,y,x1",
            "unit,time,y",
            "unit,time,y,x2,x1",
            "unit,time,y,x1,z",
        ],
    )
    def test_malformed_header(self, tmp_path, header):
        f = self.write(tmp_path / "bad.csv", header + "\na,1,0,0\n")
        with pytest.raises(MalformedInput, match="header"):
            read_csv(f)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize(
        "header,rows,message",
        [
            ("unit,time,y,x1", ["a,1,1,2,3", "a,2,4,5,6", "b,1,7,8,9", "b,2,1,2,3"],
             "^record 1 has 5 fields, expected 4$"),
            ("unit,time,y,x1,x2", ["a,1,1,2", "a,2,4,5", "b,1,7,8", "b,2,1,2"],
             "^record 1 has 4 fields, expected 5$"),
            ("unit,time,y,x1", ["a,1,1,2", "a,2,4,5", "b,1,7,8,9", "b,2,1,2,3"],
             "^record 3 has 5 fields, expected 4$"),
            ("unit,time,y,x1", ["a,1,zz,2", "a,2,4,5,6", "b,1,7,8,9", "b,2,1,2,3"],
             "cannot parse value in record 1"),
        ],
    )
    def test_records_must_be_as_wide_as_the_header(self, tmp_path, header, rows, message, newline):
        f = tmp_path / "wide.csv"
        f.write_bytes(newline.join([header, *rows, ""]).encode("utf-8"))
        with pytest.raises(MalformedInput, match=message):
            read_csv(f)

    def test_empty_file(self, tmp_path):
        f = self.write(tmp_path / "empty.csv", "")
        with pytest.raises(MalformedInput, match="empty"):
            read_csv(f)

    def test_blank_and_whitespace_rows_are_skipped_and_not_counted(self, tmp_path):
        f = self.write(
            tmp_path / "gaps.csv",
            "unit,time,y,x1\n"
            "a,1,1.0,2.0\n"
            "\n"
            ", ,,\n"
            "a,2,3.0,4.0\n"
            "  \n"
            "b,1,5.0\n",
        )
        with pytest.raises(MalformedInput, match=r"^record 3 has 3 fields, expected 4$"):
            read_csv(f)

    def test_quoted_labels_may_hold_commas(self, tmp_path):
        f = self.write(
            tmp_path / "quoted.csv",
            "unit,time,y,x1\n"
            '"Smith, J","2001, Q1",1.0,2.0\n'
            '"Smith, J",2002,3.0,4.0\n'
            'b,"2001, Q1",5.0,6.0\n'
            "b,2002,7.0,8.0\n",
        )
        p = read_csv(f)
        assert p.unit_labels == ("Smith, J", "b")
        assert p.time_labels == ("2001, Q1", "2002")
        assert p.y.tolist() == [[1.0, 3.0], [5.0, 7.0]]

    def test_byte_order_mark_is_accepted(self, tmp_path):
        text = "unit,time,y,x1\na,1,1.0,2.0\na,2,3.0,4.0\nb,1,5.0,6.0\nb,2,7.0,8.0\n"
        plain = read_csv(self.write(tmp_path / "plain.csv", text))
        bom = tmp_path / "bom.csv"
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        p = read_csv(bom)
        assert (p.unit_labels, p.time_labels) == (plain.unit_labels, plain.time_labels)
        assert p.y.tobytes() == plain.y.tobytes() and p.x.tobytes() == plain.x.tobytes()

    def test_matches_literal_loop_on_csv_rows(self, tmp_path):
        y, x, _ = random_panel(4, 7, 5, 2)
        lines = ["unit,time,y,x1,x2"]
        for s in range(5):  # period-major, so units interleave
            for i in range(7):
                vals = (float(y[i, s]), float(x[i, s, 0]), float(x[i, s, 1]))
                lines.append(f" u{i} ,{s},{vals[0]!r},{vals[1]!r}, {vals[2]!r}")
        f = self.write(tmp_path / "p.csv", "\n".join(lines) + "\n")
        rows = [line.split(",") for line in lines[1:]]
        got = ingest_outcome(read_csv, f)
        assert got == ingest_outcome(literal_validate_panel, rows)
        assert got[2] == tuple(f"u{i}" for i in range(7))

    @pytest.mark.parametrize(
        "body,message",
        [
            (b"a,1,\xff,2.0", "not UTF-8 text"),
            (b'a,1,"' + b"9" * 131073 + b'",2.0', "line 2: field larger than field limit"),
        ],
        ids=["not-utf8", "long-field"],
    )
    def test_unreadable_bytes_are_malformed_input(self, tmp_path, body, message):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"unit,time,y,x1\n" + body + b"\na,2,3.0,4.0\n")
        with pytest.raises(MalformedInput, match=f"^{re.escape(str(f))}: {message}"):
            read_csv(f)

    def test_bad_byte_in_header_is_malformed_input(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"unit,time,y,x\xff1\na,1,2.0,3.0\na,2,3.0,4.0\n")
        with pytest.raises(
            MalformedInput, match=f"^{re.escape(str(f))}: not UTF-8 text \\(invalid start byte\\)$"
        ):
            read_csv(f)

    @pytest.mark.parametrize(
        "late",
        [b"b,1,\xff,2.0", b'b,1,"' + b"9" * 131073 + b'",2.0'],
        ids=["not-utf8", "long-field"],
    )
    def test_earlier_offending_record_wins_over_unreadable_bytes(self, tmp_path, late):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"unit,time,y,x1\na,1,abc,2.0\na,2,3.0,4.0\n" + late + b"\n")
        with pytest.raises(MalformedInput, match="^cannot parse value in record 1 "):
            read_csv(f)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_csv(tmp_path / "nope.csv")


def streamed(path):
    """``read_csv`` with the plain-file reader declining, so ``csv`` reads."""
    with mock.patch.object(panel_module, "_read_plain", return_value=None):
        return read_csv(path)


def csv_reader_forbidden():
    return mock.patch("csv.reader", side_effect=AssertionError("the csv path ran"))


def panel_lines(y, x, units=None):
    """Header and one line per (unit, time) cell, values by ``repr``."""
    n, t, k = x.shape
    units = units or [f"u{i}" for i in range(n)]
    lines = ["unit,time,y," + ",".join(f"x{j + 1}" for j in range(k))]
    for i in range(n):
        for s in range(t):
            vals = ",".join(repr(float(v)) for v in (y[i, s], *x[i, s]))
            lines.append(f"{units[i]},t{s},{vals}")
    return lines


FILE_FAULTS = [
    "quote", "blank", "all-blank", "tab", "cr", "control", "bom", "non-ascii",
    "bad-byte", "long-field", "no-final-newline", "header", "header-only",
]


@st.composite
def faulty_files(draw):
    """CSV bytes of ``faulty_records()``, with file-level faults on top.

    Each fault keeps labels consistent across lines where it can, so a
    reader that mishandled it could still see a valid panel.
    """
    records = draw(faulty_records())
    faults = draw(st.lists(st.sampled_from(FILE_FAULTS), max_size=3, unique=True))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    quoted = draw(st.integers(1, 2)) if "quote" in faults else 0

    def line(row):
        buf = io.StringIO()
        if quoted:  # every label of the leading columns in quotes
            csv.writer(buf, lineterminator=",", quoting=csv.QUOTE_ALL).writerow(row[:quoted])
        csv.writer(buf, lineterminator=eol).writerow(row[quoted:])
        return buf.getvalue()

    width = statistics.mode(len(r) for r in records) if records else 4
    header = ["unit", "time", "y"] + [f"x{j}" for j in range(1, width - 2)]
    if "header" in faults:
        header = draw(st.sampled_from([header[:-1], header + ["x9"], ["id"] + header[1:]]))
    lines = [line(header)] + [line(r) for r in records]
    if "header-only" in faults:
        lines = lines[:1]

    def insert(text):
        i = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, max(len(lines[i]) - len(eol), 0)))
        lines[i] = lines[i][:at] + text + lines[i][at:]

    if "blank" in faults:
        lines.insert(draw(st.integers(0, len(lines))), eol)
    if "all-blank" in faults:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([", ,,", " , ", ",,,,"])) + eol)
    if "tab" in faults:
        insert("\t")
    if "cr" in faults:
        insert("\r")
    if "control" in faults:
        insert(draw(st.sampled_from(["\x00", "\x0b", "\x0c", "\x1c", "\x7f"])))
    if "non-ascii" in faults:
        insert(draw(st.sampled_from(["é", "日本", "\xa0", "\u2028", "\x85", "\ufeff"])))
    if "long-field" in faults:
        insert(" " * (csv.field_size_limit() + 1))
    text = "".join(lines)
    if "no-final-newline" in faults:
        text = text[: -len(eol)]
    data = text.encode("utf-8")
    if "bad-byte" in faults:
        i = draw(st.integers(0, len(data)))
        data = data[:i] + b"\xff" + data[i:]
    if "bom" in faults:
        data = b"\xef\xbb\xbf" + data
    return data


class TestPlainReader:
    """The plain-file path of ``read_csv`` against the streamed ``csv`` path."""

    @settings(max_examples=300, deadline=None)
    @given(faulty_files(), st.sampled_from([16, 64, 1 << 20]))
    @example(b"unit,time,y,x1\na,1,1,2\na,2,3,4\nb,1,5,6\nb,2,7,8", 16)
    @example(b"unit,time,y,x1\r\na,1,1,2\r\na,2,3,4\rb,1,5,6\r\nb,2,7,8\r\n", 1 << 20)
    @example(b'unit,time,y,x1\n"a",1,1,2\n"a",2,3,4\n"b",1,5,6\n"b",2,7,8\n', 16)
    @example(b"unit,time,y,x1\na,1,1,2\na,2,3\r,4\nb,1,5,6\nb,2,7,8\n", 1 << 20)
    @example(b"id,time,y,x1\na,1,1,2\na,2,3,4\nb,1,5,6\nb,2,7,8\n", 1 << 20)
    @example(b"unit,time,y,x1\na,1,1,2\na,2,3,4\nb,1,5,6\nb,2,7," + b" " * 131073 + b"8\n", 1 << 20)
    @example(b"unit,time,y,x1\na,1,1,2\na,2,3,4\n\nb,1,5,6\nb,2,7,8\n", 1 << 20)
    @example(b"unit,time,y,x1\na,1,1,2\na,2,3,4\nb,1,5,6\nb,2,7,8\n", 1 << 20)
    def test_same_panel_or_same_error_as_streamed(self, tmp_path_factory, data, block):
        f = tmp_path_factory.mktemp("plain") / "p.csv"
        f.write_bytes(data)
        with mock.patch.object(panel_module, "_BLOCK_BYTES", block):
            got = ingest_outcome(read_csv, f)
        assert got == ingest_outcome(streamed, f)

    @pytest.mark.parametrize(
        "eol,bom,final", [("\n", b"", "\n"), ("\r\n", b"\xef\xbb\xbf", ""), ("\n", b"", "")]
    )
    @pytest.mark.parametrize("block", [64, 1 << 20])
    def test_plain_file_skips_the_csv_module(self, tmp_path, eol, bom, final, block):
        y, x, _ = random_panel(5, 6, 4, 2)
        f = tmp_path / "p.csv"
        lines = panel_lines(y, x, [f" u{i}" for i in range(6)])
        f.write_bytes(bom + (eol.join(lines) + final).encode())
        expected = ingest_outcome(streamed, f)
        with mock.patch.object(panel_module, "_BLOCK_BYTES", block), csv_reader_forbidden():
            assert ingest_outcome(read_csv, f) == expected
        assert expected[2] == tuple(f"u{i}" for i in range(6))

    @pytest.fixture(scope="class")
    def many_blocks(self):
        """Lines of a clean panel that spans more than two blocks."""
        y, x, _ = random_panel(6, 5200, 10, 1)
        lines = panel_lines(y, x, [f"é{i}" for i in range(5200)])
        assert len("\n".join(lines).encode()) > 2 * panel_module._BLOCK_BYTES
        return lines

    @pytest.mark.parametrize(
        "last,error,message",
        [
            (None, None, None),
            (
                "é5199,t9,abc,1.0",
                MalformedInput,
                "cannot parse value in record 52000 (unit 'é5199', time 't9'): 'abc'",
            ),
            ("é5199,t8,1.0,1.0", DuplicateCell, "duplicate cell for unit 'é5199', time 't8'"),
            ('"é5199",t9,1.0,1.0', None, None),
            ("é5199,t9,1.0,1.0\r", None, None),
            # the message is the csv module's on Python 3.10, which rejects
            # NUL; later versions pass it on to float
            ("é5199,t9,1.0\x00,1.0", MalformedInput, None),
        ],
        ids=["clean", "unparseable", "duplicate", "quoted", "lone-cr", "nul"],
    )
    def test_fault_only_in_the_last_block(self, tmp_path, many_blocks, last, error, message):
        f = tmp_path / "p.csv"
        lines = many_blocks if last is None else many_blocks[:-1] + [last]
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = ingest_outcome(streamed, f)
        assert ingest_outcome(read_csv, f) == expected
        if error is None:
            assert expected[2][-1] == "é5199"
        elif message is None:
            assert expected[0] is error
        else:
            assert expected == (error, message)

    def test_multibyte_label_across_a_block_boundary(self, tmp_path, many_blocks):
        lines = list(many_blocks)
        block = panel_module._BLOCK_BYTES
        starts = np.cumsum([0] + [len(s.encode()) + 1 for s in lines])
        # pad the first label (padding is stripped) so a line starts one byte
        # before the boundary, splitting its leading two-byte character
        j = int(np.searchsorted(starts, block - 1, side="right")) - 1
        lines[1] = " " * int(block - 1 - starts[j]) + lines[1]
        data = ("\n".join(lines) + "\n").encode()
        assert data[block - 1 : block + 1] == "é".encode()
        f = tmp_path / "p.csv"
        f.write_bytes(data)
        expected = ingest_outcome(streamed, f)
        with csv_reader_forbidden():
            assert ingest_outcome(read_csv, f) == expected
        assert len(expected[2]) == 5200

    def test_peak_memory_is_a_small_multiple_of_the_file(self, tmp_path):
        y, x, _ = random_panel(7, 10000, 10, 3)
        f = tmp_path / "p.csv"
        f.write_text("\n".join(panel_lines(y, x)) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            p = read_csv(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.y.shape == (10000, 10)
        assert peak < 4 * f.stat().st_size

    @pytest.mark.parametrize(
        "layout",
        ["unit-major", "time-major", "shuffled", "padded-head", "padded-unit",
         "unit-back", "duplicate", "long-period", "crlf", "line-separators"],
    )
    def test_any_row_order_reads_like_streamed(self, tmp_path, layout):
        t = 12 if layout == "long-period" else 4
        y, x, _ = random_panel(8, 9, t, 1)
        units = None
        if layout == "line-separators":  # str.splitlines would split these
            units = [f"u\u2028{i}" if i % 2 else f"\x85u{i}\u2028" for i in range(9)]
        lines = panel_lines(y, x, units)
        header, rows = lines[0], lines[1:]
        rng = np.random.default_rng(3)
        if layout == "time-major":
            rows = [rows[i * t + s] for s in range(t) for i in range(9)]
        elif layout == "shuffled":
            rows = [rows[i] for i in rng.permutation(len(rows))]
        elif layout == "padded-head":  # only the first row of u3 is padded
            rows[3 * t] = " " + rows[3 * t]
        elif layout == "padded-unit":  # every row of u3 is padded
            rows[3 * t : 4 * t] = [" " + r for r in rows[3 * t : 4 * t]]
        elif layout == "unit-back":  # u1's last two periods come after u2
            rows = rows[:t] + rows[t + 2 : 2 * t] + rows[2 * t : 3 * t] + rows[t : t + 2] + rows[3 * t :]
        elif layout == "duplicate":  # u1 comes back with one more t0 row
            rows = rows[: 5 * t] + [rows[t]] + rows[5 * t :]
        eol = "\r\n" if layout == "crlf" else "\n"
        f = tmp_path / "p.csv"
        f.write_text(eol.join([header] + rows) + eol, encoding="utf-8")
        expected = ingest_outcome(streamed, f)
        # blocks of about four lines, so most start in the middle of a unit
        with mock.patch.object(panel_module, "_BLOCK_BYTES", 4 * len(rows[0])):
            if layout == "duplicate":
                assert ingest_outcome(read_csv, f) == expected
            else:
                with csv_reader_forbidden():
                    assert ingest_outcome(read_csv, f) == expected
        if layout == "duplicate":
            assert expected[0] is DuplicateCell
        else:
            assert len(expected) == 4  # a panel
        if layout == "line-separators":
            assert expected[2] == tuple(u.strip() for u in units)

    def test_one_block_peak_memory(self, tmp_path):
        # Bounded by the tracemalloc peak of the reader before values were
        # parsed from bytes: 6695603 bytes (Python 3.11, numpy 2.4).
        y, x, _ = random_panel(7, 1000, 10, 2)
        f = tmp_path / "p.csv"
        f.write_text("\n".join(panel_lines(y, x)) + "\n", encoding="utf-8")
        assert f.stat().st_size < panel_module._BLOCK_BYTES
        read_csv(f)
        tracemalloc.start()
        try:
            read_csv(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6_695_603


# Labels a plain line may hold: short and long, multibyte, empty, and
# ones that strip to one another or hold a line separator.
LABELS = st.one_of(
    st.sampled_from(
        ["a", " a", "a ", "\xa0a", "a\u2028", "\x85a", "", " ", "u1", "2020-01-01",
         "country_00123", "country_00123 ", "é", "日本語のラベル", "a\u2028b"]
    ),
    st.text(st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters=',"'), max_size=20),
)


@st.composite
def label_blocks(draw):
    """Blocks of (unit, time) rows of ``LABELS``: unit-major, time-major or
    shuffled, with padded, repeated or dropped rows."""
    units = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    times = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    n, t = len(units), len(times)
    rows = [(u, s) for u in units for s in times]
    order = draw(st.sampled_from(["unit-major", "time-major", "shuffled"]))
    if order == "time-major":
        rows = [rows[i * t + s] for s in range(t) for i in range(n)]
    elif order == "shuffled":
        rows = draw(st.permutations(rows))
    for fault in draw(st.lists(st.sampled_from(["pad", "repeat", "drop"]), max_size=2)):
        r = draw(st.integers(0, len(rows) - 1))
        if fault == "pad":
            col = draw(st.integers(0, 1))
            rows[r] = tuple(" " + v if c == col else v for c, v in enumerate(rows[r]))
        elif fault == "repeat":
            rows.insert(draw(st.integers(r, len(rows))), rows[r])
        elif len(rows) > 1:
            del rows[r]
    cuts = sorted(draw(st.lists(st.integers(1, len(rows) - 1), max_size=3)) if len(rows) > 1 else [])
    bounds = [0] + cuts + [len(rows)]
    return [rows[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def label_coded(blocks):
    """The codes and indexes the plain reader's label coder gives the
    (unit, time) rows of each block in turn, and those of ``_code_labels``."""
    by_bytes, by_labels = ({}, {}), ({}, {})
    got, expected = [], []
    for rows in blocks:
        block = panel_module._padded("".join(f"{u},{s},0\n" for u, s in rows).encode())
        seps = panel_module._plain_seps(block, 3)
        assert seps is not None
        got.append([c.tolist() for c in panel_module._label_codes(block, seps, *by_bytes)])
        expected.append([panel_module._code_labels(c, i).tolist() for c, i in zip(zip(*rows), by_labels)])
    return (got, [list(i) for i in by_bytes]), (expected, [list(i) for i in by_labels])


class TestLabelCodes:
    """The plain reader's label coder against ``_code_labels``, block after
    block: the same codes, and each index in the same order."""

    @settings(max_examples=400, deadline=None)
    @given(label_blocks())
    @example([[("a", "1"), (" a", "2"), ("a ", "1")], [("\xa0a", "2"), ("b", " 1")]])
    @example([[("country_00123", "2020-01-01"), ("country_00123 ", "2020-01-02")], [("", "2020-01-01")]])
    def test_same_codes_and_labels(self, blocks):
        got, expected = label_coded(blocks)
        assert got == expected

    @pytest.mark.parametrize(
        "units,times",
        [
            (["a", "a", "b"], ["1", "2", "3"]),  # no full cycle
            (["a", "b", "a", "b"], ["1", "1", "2", "2"]),  # time-major
            ([" a", " a", "b", "b"], ["1", "2", "1", "2"]),  # a padded head
            (["a", "a", "b", "b"], ["1", " 2", "1", " 2"]),  # a padded period
            (["a", "a", "a", "a"], ["1", "2", "1", "2"]),  # a head that is not new
            (["a", "a", "b", "b"], ["1", "1", "1", "1"]),  # a repeated period
            # long labels that strip to one, and one a line separator ends
            (["country_00123", "country_00123 ", "\xa0country_00123", "b\u2028"], ["2020-01-01"] * 4),
        ],
    )
    def test_one_block(self, units, times):
        got, expected = label_coded([list(zip(units, times))])
        assert got == expected

    def test_codes_continue_across_blocks(self):
        units, times = ["a", "a", "a", "b", "b", "b", "c"], ["1", "2", "3"] * 2 + ["1"]
        got, expected = label_coded([list(zip(units, times)), [("c", "2"), ("c", "3"), ("d", "1")]])
        assert got == expected
        assert got[0] == [[[0, 0, 0, 1, 1, 1, 2], [0, 1, 2, 0, 1, 2, 0]], [[2, 2, 3], [1, 2, 0]]]
        assert got[1] == [["a", "b", "c", "d"], ["1", "2", "3"]]


# bytes of a field, plain or not; plain ones more often
SEPARATOR_FIELDS = st.lists(
    st.sampled_from(
        [b"a", b"7", b".", b"-", b" ", b"!", b"#", b"+", "é".encode(), "\u2028".encode()] * 3
        + [b'"', b"\x00", b"\t", b"\r", b"\xff"]
    ),
    max_size=4,
).map(b"".join)


@st.composite
def separator_blocks(draw):
    """A block of lines and the width its lines should have: ragged comma
    counts, bytes plain lines may or may not hold, LF or CRLF ends, and
    lines just within and just past ``csv.field_size_limit()``."""
    width = draw(st.integers(1, 5))
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        n_fields = draw(st.sampled_from([width, width, width, max(width - 1, 1), width + 1]))
        line = b",".join(draw(SEPARATOR_FIELDS) for _ in range(n_fields))
        eol = draw(st.sampled_from([b"\n", b"\r\n"]))
        if draw(st.integers(0, 9)) == 0:  # as long as the limit, one less or one more
            line += b" " * max(csv.field_size_limit() + draw(st.integers(-1, 1)) - len(line + eol) + 1, 0)
        lines.append(line + eol)
    return b"".join(lines), width


class TestPlainSeps:
    """``_plain_seps`` against a line-by-line scan in plain Python bytes."""

    @settings(max_examples=300, deadline=None)
    @given(separator_blocks())
    @example((b"a,b\r\nc,d\n", 2))
    @example((b"a,b\rc,d\n", 2))
    @example((b"a,b,c\nd\n", 2))
    @example((b"a," + b" " * (csv.field_size_limit() - 3) + b"\r\n", 2))
    @example((b"a," + b" " * (csv.field_size_limit() - 1) + b"\n", 2))
    def test_same_plainness_and_positions(self, case):
        block, width = case
        got = panel_module._plain_seps(panel_module._padded(block), width)
        expected = literal_plain_seps(block, width)
        assert (got is None) == (expected is None)
        if got is not None:
            assert (got - panel_module._WINDOW).tolist() == expected


def parsed(strings):
    """``panel._parse_values`` of ``strings`` as the values of one line."""
    block = panel_module._padded((",".join(["u", "t", *strings]) + "\n").encode())
    raw = np.frombuffer(block, dtype=np.uint8)
    return panel_module._parse_values(block, np.flatnonzero((raw == 0x2C) | (raw == 0x0A))[None])


def assert_parsed_like_float(strings):
    """Each string parses to ``float``'s bits, or alone to None where
    ``float`` raises ValueError."""
    good, bad = [], []
    for s in strings:
        try:
            good.append(float(s))
        except ValueError:
            bad.append(s)
    kept = [s for s in strings if s not in set(bad)]
    got = parsed(kept)
    assert got is not None
    mismatched = [s for s, a, b in zip(kept, got.tolist(), good) if a.hex() != b.hex()]
    assert mismatched == []
    assert [s for s in bad if parsed([s]) is not None] == []


def midpoint(j, e, nudge):
    """(2j + 1) 2**(e - 1) in decimal, its last digit moved by ``nudge``:
    for 2**52 <= j < 2**53, the midpoint between two doubles and its
    neighbours."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        value = decimal.Decimal(2 * j + 1) * decimal.Decimal(2) ** (e - 1)
        value += nudge * decimal.Decimal(1).scaleb(value.as_tuple().exponent)
    return format(value, "f")


MIDPOINTS = st.builds(
    midpoint, st.integers(2**52, 2**53 - 1), st.integers(-3, 11), st.integers(-1, 1)
)
DIGIT_STRINGS = st.builds(
    lambda digits, at, dot, sign: sign * "-" + (digits[:at] + "." + digits[at:] if dot else digits),
    st.text("0123456789", min_size=1, max_size=20),
    st.integers(0, 20),
    st.booleans(),
    st.booleans(),
)
GRAMMAR_EDGES = [
    ".", "-", "-.", "5.", ".5", "-0", "-0.0", "", "+1", "1e5", " 1", "1_0", "٣", "nan",
    "12345678901234567890", "-1234567890123456789.0", "9999999999999999999", "1.2.3", "--1",
]


class TestExactValues:
    """The reader's value parse against ``float``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False).map(repr),
                st.builds("{:.{}f}".format, st.floats(-1e6, 1e6), st.integers(0, 19)),
                DIGIT_STRINGS,
                MIDPOINTS,
                st.sampled_from(GRAMMAR_EDGES),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @example(["4503599627370497.5", "4503599627370496.5", "9007199254740993"])
    def test_same_bits_as_float(self, strings):
        assert_parsed_like_float(strings)

    def test_sweep(self):
        # 60000 strings of each kind but the grammar edges
        rng = random.Random(15)
        doubles = [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(60000)]
        strings = [repr(v) for v in doubles if math.isfinite(v)]
        strings += [f"{rng.gauss(0, 1e3):.{rng.randint(0, 19)}f}" for _ in range(60000)]
        for _ in range(60000):
            digits = "".join(rng.choices("0123456789", k=rng.randint(1, 20)))
            at = rng.randint(0, len(digits))
            text = digits[:at] + "." + digits[at:] if rng.random() < 0.7 else digits
            strings.append(("-" if rng.random() < 0.5 else "") + text)
        strings += [
            midpoint(rng.randrange(2**52, 2**53), rng.randint(-3, 11), nudge)
            for _ in range(20000)
            for nudge in (-1, 0, 1)
        ]
        assert_parsed_like_float(strings + GRAMMAR_EDGES)

    def test_fast_path_parses_the_benchmark_values(self):
        values = [repr(v) for v in np.random.default_rng(4).normal(size=1000).tolist()]
        with mock.patch.object(panel_module, "float", wraps=float, create=True) as slow:
            assert parsed(values).tolist() == list(map(float, values))
        assert slow.call_count < 10

    def test_read_csv_without_the_fast_path(self, tmp_path):
        y, x, _ = random_panel(9, 40, 5, 2)
        f = tmp_path / "p.csv"
        f.write_text("\n".join(panel_lines(y, x)) + "\n", encoding="utf-8")
        expected = ingest_outcome(read_csv, f)
        with mock.patch.object(panel_module, "_FAST_DIGITS", 0), mock.patch.object(
            panel_module, "float", wraps=float, create=True
        ) as slow:
            assert ingest_outcome(read_csv, f) == expected
        assert slow.call_count == 40 * 5 * 3
        assert expected[0] == y.tobytes()
