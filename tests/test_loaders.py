"""The input loaders and gap fill against their per-row references.

``shapes.load_timeseries_csv`` parses whole blocks of rows at once and
keeps a block only when every row is clean; any other block is read again
by ``shapes._timeseries_row``, the one definition of a valid row.
``shapes.load_shape_csv`` reads one row at a time, and
``shapes._fill_gaps`` fills whole runs of slots at once.  ``_oracles``
keeps independent one-row (or one-slot) versions; here both must give
bit-identical arrays and gaps, and raise the same error (class, message
and line) for the same fault.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import write_timeseries_csv
from gridlab import shapes
from gridlab.errors import DataIntegrityError, GridlabError, TimeseriesParseError
from gridlab.shapes import (
    FUELS,
    SLOTS_PER_DAY,
    _BLOCK_ROWS,
    _fill_gaps,
    clean_series,
    load_shape_csv,
    load_timeseries_csv,
    synth_shapes,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _write_patchy_csv(data_dir, seed):
    """The benchmark's ``csv_detail`` input files for ``seed``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks the module up
    spec.loader.exec_module(workloads)  # numpy and the standard library only
    workloads.write_patchy_csv(data_dir, seed)


def _outcome(load, *args):
    """What a loader returns, or the class, message and line of its error."""
    try:
        return load(*args)
    except GridlabError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _series(data):
    return {"demand": data.demand, **{fuel: data.supply_by_fuel[fuel] for fuel in FUELS}}


def assert_same_base_year(got, want):
    if isinstance(got, tuple) or isinstance(want, tuple):  # an error
        assert got == want
        return
    assert got.year == want.year
    assert got.gaps == want.gaps
    for name, values in _series(want).items():
        assert _series(got)[name].tobytes() == values.tobytes(), name


def assert_same_cleaned(raw, max_gap_slots=4):
    cleaned = clean_series(raw, max_gap_slots=max_gap_slots)
    for name, values in _series(raw).items():
        want = _oracles.fill_gaps(values, max_gap_slots, name)
        assert _series(cleaned)[name].tobytes() == want.tobytes(), name


# --- loaded series, gaps and cleaned arrays -----------------------------------


def _no_row_walk(*args):
    raise AssertionError("a block left the block pass")


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_patchy_files_match_the_per_row_loaders(tmp_path, monkeypatch, seed):
    _write_patchy_csv(tmp_path, seed)
    # blanks, missing rows and outages are clean blocks: the benchmark's
    # files never pay for the row-by-row walk
    monkeypatch.setattr(shapes, "_timeseries_row", _no_row_walk)
    raw = load_timeseries_csv(tmp_path / "base_year.csv", 2021)
    assert_same_base_year(raw, _oracles.load_timeseries_csv(tmp_path / "base_year.csv", 2021))
    assert raw.gaps  # the file is patchy: blanks, missing rows and days, an outage
    assert_same_cleaned(raw)
    shape = tmp_path / "solar_shape.csv"
    assert load_shape_csv(shape).values.tobytes() == _oracles.load_shape_csv(shape).values.tobytes()


def _leap_year_file(path):
    """A 2020 base year with the patchy files' kinds of gap, and gaps at
    both ends of the year and on 29 February."""
    base = _oracles.base_in_year(synth_shapes(5), 2020)
    rng = np.random.default_rng(2020)
    n = base.demand.size
    skip = {0, 1, n - 1}
    for start, length in zip(rng.integers(48, n - 48, 30), rng.integers(1, 5, 30)):
        skip.update(range(start, start + length))
    for day in (59, 200):  # 29 February and a summer day
        skip.update(range(day * SLOTS_PER_DAY, (day + 1) * SLOTS_PER_DAY))
    columns = ["demand_mw", "coal_mw", "gas_mw", "hydro_mw", "nuclear_mw", "re_mw"]
    blank = {(int(s), columns[c]) for s, c in zip(rng.integers(0, n, 150), rng.integers(0, 6, 150))}
    blank |= {(s, "hydro_mw") for s in range(100 * SLOTS_PER_DAY, 121 * SLOTS_PER_DAY)}
    blank |= {(s, "re_mw") for s in range(n - 7, n)}
    write_timeseries_csv(path, base, skip_slots=skip, blank=blank)


def test_leap_year_file_matches_the_per_row_loader(tmp_path):
    path = tmp_path / "base_year.csv"
    _leap_year_file(path)
    raw = load_timeseries_csv(path, 2020)
    assert raw.demand.size == 17_568
    assert raw.gaps["re"][-1] == (17_561, 17_568)
    assert_same_base_year(raw, _oracles.load_timeseries_csv(path, 2020))
    assert_same_cleaned(raw)
    assert_same_cleaned(raw, max_gap_slots=0)


def test_a_partial_last_block_matches_the_per_row_loader(tmp_path, data_dir):
    # every row of 2021 plus a few blank lines: the last block is short
    lines = (data_dir / "base_year.csv").read_text().splitlines()
    assert (len(lines) - 1) % _BLOCK_ROWS != 0
    lines[300:300] = ["", " , ,", ",,,,,,"]
    path = tmp_path / "base_year.csv"
    path.write_text("\n".join(lines) + "\n")
    got = load_timeseries_csv(path, 2021)
    assert got.gaps == {}
    assert_same_base_year(got, _oracles.load_timeseries_csv(path, 2021))


# --- errors: same class, message and line as the per-row loaders ----------------


def _set_cell(line, column, text):
    # a line an earlier random edit shortened gets blank cells up to ``column``
    cells = line.split(",")
    cells += [""] * (column + 1 - len(cells))
    cells[column] = text
    return ",".join(cells)


def _cell(column, text):
    return lambda line, previous: _set_cell(line, column, text)


#: Edits of a full 2021 file: (offset, edit), where ``edit(line,
#: previous_line)`` rewrites the data line ``offset`` rows after the
#: faulty place.
CASES = {
    "too_few_fields": [(0, lambda line, _: line.rsplit(",", 1)[0])],
    "too_many_fields": [(0, lambda line, _: line + ",1")],
    "bad_timestamp": [(0, _cell(0, "nonsense"))],
    "wrong_year": [(0, lambda line, _: "2020" + line[4:])],
    "off_grid_minute": [(0, lambda line, _: line[:14] + "17" + line[16:])],
    "not_advancing": [(0, lambda line, previous: _set_cell(line, 0, " " + previous[:19]))],
    "nan_cell": [(0, _cell(3, "nan"))],
    "inf_cell": [(0, _cell(3, "inf"))],
    "overflowing_cell": [(0, _cell(3, "1e400"))],
    "negative_cell": [(0, _cell(3, "-1"))],
    "text_cell": [(0, _cell(3, "abc"))],
    "two_bad_cells": [(0, _cell(5, "-2")), (0, _cell(2, " x "))],
    # these load, as they always did
    "spaces_cell": [(0, _cell(3, "   "))],
    "underscore_cell": [(0, _cell(3, "1_000"))],
    "minus_zero_cell": [(0, _cell(3, "-0"))],
    "quoted_cell": [(0, _cell(3, '"12.5"'))],
    "spaces_row": [(0, lambda line, _: "  ,  ,, , ,,")],
    "empty_row": [(0, lambda line, _: "")],
    # a cell fault on an earlier line than a timestamp fault, and the reverse
    "cell_then_timestamp": [(0, _cell(1, "-3")), (5, _cell(0, "nonsense"))],
    "timestamp_then_cell": [(0, lambda line, _: "2020" + line[4:]), (5, _cell(1, "abc"))],
    "timestamp_and_cell_on_one_line": [(0, _cell(2, "abc")), (0, _cell(0, "2021-01-01 00:10:00"))],
    "cell_then_field_count": [(0, _cell(6, "inf")), (1, lambda line, _: line + ",")],
}

#: list index of the edited data line: a row of the first block, and the
#: first row of the third, which the advance check compares with the
#: last row of the block before
PLACES = {"first_block": 11, "later_block": 2 * _BLOCK_ROWS + 1}


def _edited(path, lines, edits, where):
    lines = list(lines)
    for offset, edit in edits:
        i = where + offset
        lines[i] = edit(lines[i], lines[i - 1])
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def full_year_lines(data_dir):
    return (data_dir / "base_year.csv").read_text().splitlines()


@pytest.mark.parametrize("place", sorted(PLACES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_errors_match_the_per_row_loader(tmp_path, full_year_lines, case, place):
    path = _edited(tmp_path / "base_year.csv", full_year_lines, CASES[case], PLACES[place])
    assert_same_base_year(_outcome(load_timeseries_csv, path, 2021),
                          _outcome(_oracles.load_timeseries_csv, path, 2021))


def _next_year(line, _):
    return "2022" + line[4:]


@pytest.mark.parametrize("where", [_BLOCK_ROWS, -1], ids=["block_end", "file_end"])
def test_a_later_year_on_a_last_row_is_outside_the_year(tmp_path, full_year_lines, where):
    # the slot still advances: only the year check sees the fault
    path = _edited(tmp_path / "base_year.csv", full_year_lines, [(0, _next_year)], where)
    want = _outcome(_oracles.load_timeseries_csv, path, 2021)
    assert "outside year 2021" in want[1]
    assert _outcome(load_timeseries_csv, path, 2021) == want


#: edits beyond the ``CASES`` texts: cells that load (a cell of spaces,
#: a subnormal) or do not (a spaced NaN), a stamp with an offset and one
#: of the next year
EXTRA_EDITS = [
    *(_cell(column, text) for column in (1, 6) for text in ("  ", " nan ", "1e-320")),
    lambda line, _: _set_cell(line, 0, line.split(",")[0] + "+05:30"),
    _next_year,
]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_edits_match_the_per_row_loader(tmp_path_factory, full_year_lines, data):
    n_rows = len(full_year_lines) - 1
    # data lines 1 + k * _BLOCK_ROWS and (k + 1) * _BLOCK_ROWS open and close block k
    block_edge = st.integers(0, n_rows // _BLOCK_ROWS - 1).flatmap(
        lambda k: st.sampled_from([1 + k * _BLOCK_ROWS, (k + 1) * _BLOCK_ROWS]))
    row = st.one_of(block_edge, st.integers(1, n_rows))
    edit = st.sampled_from([edit for edits in CASES.values() for _, edit in edits] + EXTRA_EDITS)
    edits = data.draw(st.lists(st.tuples(row, edit), min_size=1, max_size=3), label="edits")
    lines = list(full_year_lines)
    for i, edit in edits:
        lines[i] = edit(lines[i], lines[i - 1])
    path = tmp_path_factory.mktemp("edited") / "base_year.csv"
    path.write_text("\n".join(lines) + "\n")
    assert_same_base_year(_outcome(load_timeseries_csv, path, 2021),
                          _outcome(_oracles.load_timeseries_csv, path, 2021))


#: the data directory's stamps (``2021-01-01 00:00:00``) written three more ways
STAMP_FORMS = {
    "T": lambda stamp: stamp.replace(" ", "T"),
    "offset": lambda stamp: stamp + "+05:30",
    "Z": pytest.param(lambda stamp: stamp + "Z", marks=pytest.mark.skipif(
        sys.version_info < (3, 11), reason="datetime.fromisoformat reads Z from Python 3.11")),
}


@pytest.mark.parametrize("form", STAMP_FORMS.values(), ids=STAMP_FORMS)
def test_timestamps_are_read_as_wall_clock_time(tmp_path, data_dir, full_year_lines, form):
    header, *rows = full_year_lines
    path = tmp_path / "base_year.csv"
    path.write_text("\n".join([header] + [f"{form(stamp)},{cells}" for stamp, cells in
                                          (row.split(",", 1) for row in rows)]) + "\n")
    assert_same_base_year(load_timeseries_csv(path, 2021),
                          load_timeseries_csv(data_dir / "base_year.csv", 2021))


@pytest.mark.parametrize("text", ["time,demand\n2021-01-01 00:00:00,1\n", ""],
                         ids=["bad_header", "empty_file"])
def test_header_errors_match_the_per_row_loader(tmp_path, text):
    path = tmp_path / "base_year.csv"
    path.write_text(text)
    want = _outcome(_oracles.load_timeseries_csv, path, 2021)
    assert isinstance(want, tuple)
    assert _outcome(load_timeseries_csv, path, 2021) == want


# --- the shape loader ----------------------------------------------------------


def test_shape_rows_need_exactly_two_fields(tmp_path):
    path = tmp_path / "solar_shape.csv"
    path.write_text("slot,fraction\n0,0.5\n1,0.5,junk\n")
    with pytest.raises(TimeseriesParseError) as err:
        load_shape_csv(path)
    assert err.value.line == 3
    path.write_text("slot,fraction\n0,0.5\n1\n")
    with pytest.raises(TimeseriesParseError) as err:
        load_shape_csv(path)
    assert err.value.line == 3


SHAPE_CASES = {
    "extra_field": [(0, lambda line, _: line + ",junk")],
    "one_field": [(0, lambda line, _: line.split(",")[0])],
    "bad_slot": [(0, lambda line, _: "x" + line)],
    "bad_fraction": [(0, lambda line, _: line + "x")],
    "out_of_order": [(0, lambda line, _: "7" + line)],
    "above_one": [(0, _cell(1, "1.5"))],
    "nan_fraction": [(0, _cell(1, "nan"))],
    "spaces_row": [(0, lambda line, _: " , \n" + line)],  # loads
    "order_then_parse": [(0, lambda line, _: "9" + line), (2, lambda line, _: "x")],
}


def _same_shape_outcome(path):
    got, want = _outcome(load_shape_csv, path), _outcome(_oracles.load_shape_csv, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("place", sorted(PLACES))
@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
def test_shape_errors_match_the_per_row_loader(tmp_path, data_dir, case, place):
    lines = (data_dir / "solar_shape.csv").read_text().splitlines()
    _same_shape_outcome(_edited(tmp_path / "solar_shape.csv", lines, SHAPE_CASES[case],
                                PLACES[place]))


@pytest.mark.parametrize("text", ["slot,value\n0,0.5\n", "", "slot,fraction\n"],
                         ids=["bad_header", "empty_file", "no_rows"])
def test_shape_header_errors_match_the_per_row_loader(tmp_path, text):
    path = tmp_path / "solar_shape.csv"
    path.write_text(text)
    _same_shape_outcome(path)


# --- gap fill --------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fill_gaps_matches_the_per_slot_reference(data):
    days = data.draw(st.integers(10, 40), label="days")
    n = days * SLOTS_PER_DAY
    values = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(0.0, 1e3, n)
    mask = np.zeros(n, dtype=bool)
    runs = st.tuples(st.integers(0, n - 1), st.integers(1, 3 * SLOTS_PER_DAY))
    for start, length in data.draw(st.lists(runs, max_size=10), label="runs"):
        mask[start : start + length] = True
    if data.draw(st.booleans(), label="gap at the start"):
        mask[: data.draw(st.integers(1, 2 * SLOTS_PER_DAY))] = True
    if data.draw(st.booleans(), label="gap at the end"):
        mask[n - data.draw(st.integers(1, 2 * SLOTS_PER_DAY)) :] = True
    # whole missing days, an odd count of them, so the middle day's
    # nearest days lie at equal distance on both sides
    for first, count in data.draw(
        st.lists(st.tuples(st.integers(0, days - 1), st.sampled_from([1, 3, 5])), max_size=3),
        label="missing days",
    ):
        mask[first * SLOTS_PER_DAY : (first + count) * SLOTS_PER_DAY] = True
    if data.draw(st.booleans(), label="a slot of day always missing"):
        mask[data.draw(st.integers(0, SLOTS_PER_DAY - 1)) :: SLOTS_PER_DAY] = True
    values[mask] = np.nan
    max_gap_slots = data.draw(st.integers(0, 6), label="max_gap_slots")

    def run(fill):
        try:
            return fill(values, max_gap_slots, "demand").tobytes()
        except DataIntegrityError as exc:
            return str(exc)

    assert run(_fill_gaps) == run(_oracles.fill_gaps)
