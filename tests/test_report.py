"""Report serialization and file emission."""

import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import tracemalloc
import types
from array import array
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from starqkd.engine import run
from starqkd.errors import IoError
from starqkd.report import (
    FORMAT_VERSION,
    MetricsReport,
    RelayLedger,
    SeriesView,
    _only_numbers,
    _series_rows,
    emit_report,
    iterencode,
)
from starqkd.scenario import ingest_scenario, scenario_from_dict, with_overrides

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def report():
    s = scenario_from_dict(
        {
            "seed": 11,
            "duration_seconds": 8.0,
            "branches": [{"id": "a"}, {"id": "b"}],
            "traffic": [{"src": "a", "dst": "b", "otp_bits_per_sec": 32.0}],
        }
    )
    return run(s, collect_trace=True)


def test_json_shape(report):
    text = report.to_json()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["format_version"] == FORMAT_VERSION
    assert data["seed"] == 11
    assert set(data["links"]) == {"a", "b"}
    # traces are a debugging aid, not part of the report
    assert "event_trace" not in data
    # deterministic key order
    assert text == report.to_json()
    dumped = json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert dumped == text


def test_emit_json(report, tmp_path):
    paths = emit_report(report, "json", tmp_path / "out")
    assert [p.name for p in paths] == ["report.json"]
    assert paths[0].read_text() == report.to_json()


def test_emit_csv(report, tmp_path):
    paths = emit_report(report, "csv", tmp_path / "out")
    names = [p.name for p in paths]
    assert names == ["meta.csv", "pool_available.csv", "deposited_bits.csv", "hub.csv"]
    by_name = {p.name: p for p in paths}

    with open(by_name["meta.csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["format_version", "seed", "duration_seconds", "tick_seconds"]
    assert rows[1] == [str(FORMAT_VERSION), "11", "8.0", "1.0"]

    with open(by_name["pool_available.csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "a", "b"]
    assert len(rows) == 1 + 8  # header plus one row per tick
    assert float(rows[1][0]) == 1.0

    with open(by_name["hub.csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "time"
    assert set(rows[0][1:]) == {"active_link_count", "backlog_cost", "processed_cost"}
    assert len(rows) == 1 + 8


def test_emit_bad_format(report, tmp_path):
    with pytest.raises(ValueError, match="format"):
        emit_report(report, "yaml", tmp_path)


def test_emit_unwritable_target(report, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    with pytest.raises(IoError):
        emit_report(report, "json", blocker / "out")


def test_totals_survive_round_trip(report):
    data = json.loads(report.to_json())
    t = data["totals"]
    assert t["generated_bits"] == t["pool_available_bits"] + t["consumed_bits_total"]
    assert sum(t["consumed_bits"].values()) == t["consumed_bits_total"]


def test_json_parse_recovers_structure(report):
    assert json.loads(report.to_json()) == report.to_dict()


def test_empty_report_skeleton():
    from starqkd.report import MetricsReport

    empty = MetricsReport(seed=0, duration_seconds=1.0, tick_seconds=1.0)
    data = json.loads(empty.to_json())
    assert data["format_version"] == FORMAT_VERSION
    assert data["links"] == {} and data["relay_ledger"] == []


class _Level(IntEnum):
    LOW = 3
    HIGH = 2**70


class _Ratio(float):
    """A float subclass whose repr json must not use."""

    def __repr__(self) -> str:
        return "ratio"


_NAN, _INF = math.nan, math.inf
# Plain text, plus what JSON escapes: quote, backslash, control characters
# and everything past ASCII (a surrogate pair for U+1F600).
_SPECIAL = st.sampled_from('"\\\x00\x1f\x7f\n\u00e9\u2028\U0001f600')
_TEXT = st.text(st.characters() | _SPECIAL, max_size=6)
_INTS = st.integers() | st.integers(min_value=2**64 - 2, max_value=2**80) | st.sampled_from(_Level)
_FLOATS = st.floats() | st.floats().map(_Ratio)
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT
# Lists the encoder may print as one join, and lists one item spoils for it.
_FLAT_LISTS = (
    st.lists(st.integers() | st.integers(min_value=2**64, max_value=2**80), max_size=8)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8)
    | st.lists(st.floats(), max_size=8)
    | st.lists(st.integers() | st.booleans(), max_size=8)
    | st.lists(st.integers() | st.floats(), max_size=8)
)


def _ledger(routes, rows):
    """A RelayLedger of rows (time, route index, bits, digest); route indices wrap."""
    ledger = RelayLedger()
    codes = [ledger.route(*route) for route in routes]
    for time, route, bits, digest in rows:
        ledger.append(time, codes[route % len(codes)], bits, digest)
    return ledger


# Relay ledgers, empty ones included: names as _TEXT writes them, every
# purpose, bits from 1 to past 2**64 and times whole, fractional or not finite.
_LEDGERS = st.builds(
    _ledger,
    st.lists(
        st.tuples(_TEXT, _TEXT, st.sampled_from(("otp_traffic", "relay_request", "refresh"))),
        min_size=1,
        max_size=3,
    ),
    st.lists(
        st.tuples(
            st.floats() | st.integers(0, 10**6).map(lambda k: k / 8),
            st.integers(0, 2),
            st.integers(1, 2**20) | st.integers(2**64 - 2, 2**80),
            st.binary(min_size=32, max_size=32),
        ),
        max_size=6,
    ),
)
# A ledger of three chunks: the encoder joins a few hundred rows at a time.
_LONG_LEDGER = _ledger(
    [("b1", "b2", "otp_traffic"), ("b2", "b3", "relay_request"), ("b3", "b1", "refresh")],
    [(k * 0.1, k, 8 * k + 8, hashlib.sha256(k.to_bytes(4, "big")).digest()) for k in range(700)],
)
_ODD_LEDGER = _ledger(
    [('q"uo\\te\n', "\u00e9\x1f\U0001f600", "refresh"), ("b1", "", "otp_traffic")],
    [
        (2.5, 0, 1, bytes(32)),
        (_NAN, 1, 2**64 + 1, bytes(range(32))),
        (-_INF, 0, 2**64, b"\xff" * 32),
    ],
)
# Series views of a flat list, empty ones and ones past its end included.
_VIEWS = st.builds(
    lambda column, step, start: SeriesView(column, start % step, step),
    _FLAT_LISTS,
    st.integers(1, 4),
    st.integers(0, 3),
)
# Series views of typed arrays, as the engine holds its series: small
# ints, 32- and 64-bit ints at their limits, and floats with NaN, the
# infinities, negative zero and the smallest subnormal.
_ARRAYS = (
    st.lists(st.integers(-(2**7), 2**7 - 1), max_size=8).map(lambda v: array("b", v))
    | st.lists(st.integers(-(2**31), 2**31 - 1), max_size=8).map(lambda v: array("i", v))
    | st.lists(st.integers(-(2**63), 2**63 - 1), max_size=8).map(lambda v: array("q", v))
    | st.lists(st.floats() | st.sampled_from([_NAN, _INF, -_INF, -0.0, 5e-324]), max_size=8).map(
        lambda v: array("d", v)
    )
)
_ARRAY_VIEWS = st.builds(
    lambda column, step, start: SeriesView(column, start % step, step),
    _ARRAYS,
    st.integers(1, 4),
    st.integers(0, 3),
)
_TREES = st.recursive(
    _SCALARS | _FLAT_LISTS | _LEDGERS | _VIEWS | _ARRAY_VIEWS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=4)
    | st.dictionaries(st.integers() | st.floats(), children, max_size=3),
    max_leaves=16,
)


@given(_TREES)
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@example([1.5, _NAN, -0.0])
@example([0.25, _INF, -_INF, -0.0])
@example([-0.0, 1e300, 5e-324])
@example([2**64 + 1, -(2**100), 0])
@example([1, True, 2, False])
@example([1, 2.5, -3])
@example([1, _NAN])
@example([1, True])
@example([1, _Level.LOW])
@example([0.5, _Ratio(1.0)])
@example({"level": _Level.LOW, "levels": [_Level.LOW, _Level.HIGH], "ratio": _Ratio(0.1)})
@example([_Ratio(2.0), _Ratio(-0.0), _Ratio(_NAN)])
@example(((1, 2), (), ("a", None)))
@example({"": {}, "a": [], "b": [[], {}], "c": [{}], "d": {"e": {"f": []}}})
@example({'q"uo\\te\n\x00': "\u00e9\u2028\U0001f600\x1f", "\u00e9": ['"', "\\"]})
@example([{2: "b", 1: "a", -1.5: None, _NAN: 0, _Level.HIGH: 1}, {True: [1]}, {None: {}}])
@example(_LONG_LEDGER)
@example({"relay_ledger": _ODD_LEDGER, "a": [_LONG_LEDGER, _ledger([("a", "b", "refresh")], [])]})
@example([_ODD_LEDGER, {"x": [_ODD_LEDGER]}])
@example({"a": SeriesView([1, 2, 3, 4, 5, 6], 1, 2), "b": SeriesView([0.5, _NAN, 2.0], 0, 1)})
@example([SeriesView([], 0, 3), SeriesView([True, 1, False, 0], 0, 2), SeriesView([7], 2, 3)])
@example([SeriesView(array("d", [0.5, _NAN, _INF, -_INF, -0.0, 5e-324]), 0, 1)])
@example({"q": SeriesView(array("q", [2**63 - 1, -(2**63), 0]), 1, 2), "b": SeriesView(array("b"), 0, 1)})
def test_iterencode_matches_json_dumps(obj):
    # json.dumps prints a RelayLedger as its list of row dicts, and a
    # SeriesView as its list.
    expected = json.dumps(obj, sort_keys=True, indent=2, default=list) + "\n"
    assert "".join(iterencode(obj)) == expected


def test_a_list_of_ints_and_floats_is_one_chunk():
    # Exact ints and floats together print as one join, as either alone does.
    assert list(iterencode([1, 2.5, -3, 2**64])) == [
        "[\n  1,\n  2.5,\n  -3,\n  18446744073709551616\n]",
        "\n",
    ]


def test_a_long_array_view_is_joined_a_few_thousand_items_at_a_time():
    # 5000 floats, with a NaN in the second chunk only: two joins, the
    # second naming the NaN as JSON does, and json.dumps' bytes.
    column = array("d", [k / 8 for k in range(10_000)])
    column[9_001] = _NAN
    view = SeriesView(column, 1, 2)
    chunks = list(iterencode(view))
    assert "".join(chunks) == json.dumps(list(view), indent=2) + "\n"
    assert [chunk.count(",") for chunk in chunks] == [4095, 904, 0, 0]
    assert "NaN" in chunks[1] and "nan" not in chunks[1]


def test_relay_ledger_reads_as_its_list_of_row_dicts():
    routes = [("b1", "b2", "otp_traffic"), ("b2", "b3", "relay_request"), ("b3", "b1", "refresh")]
    appended, rows = [], []
    for i in range(5):
        key = bytes([i]) * 6
        src, dst, purpose = routes[i % 3]
        appended.append((0.5 * i + 0.25, i % 3, 48 + i, hashlib.sha256(key).digest()))
        rows.append(
            {
                "time": 0.5 * i + 0.25,
                "branch_i": src,
                "branch_j": dst,
                "bits": 48 + i,
                "key_id": f"relay-{i + 1:06d}",
                "key_fingerprint": hashlib.sha256(key).hexdigest()[:16],
                "purpose": purpose,
            }
        )
    ledger = _ledger(routes, appended)
    assert len(ledger) == 5
    for i in range(-5, 5):
        assert ledger[i] == rows[i]
    for i in (5, -6, 10**6, -(10**6)):
        with pytest.raises(IndexError):
            ledger[i]
    for part in (slice(None), slice(1, 3), slice(-2, None), slice(None, None, -2), slice(3, 1)):
        assert ledger[part] == rows[part]
    assert [row for row in ledger] == rows
    assert ledger == rows and rows == ledger and ledger == _ledger(routes, appended)
    assert ledger != rows[:-1] and ledger != rows[::-1] and ledger != tuple(rows)
    assert ledger != _ledger(routes, appended[:-1])
    assert _ledger(routes, []) == [] and not _ledger(routes, [])
    assert RelayLedger() == [] and not RelayLedger()


@pytest.mark.parametrize(
    "obj",
    [{1, 2}, b"bytes", object(), [1, 2, {3}], {"a": [1.0, b"x"]}, {(1, 2): 0}, {"k": 1, 2: 3}],
)
def test_iterencode_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        "".join(iterencode(obj))


def test_emit_json_streams_without_a_second_copy(tmp_path):
    # emit_report writes the encoder's chunks as they come: its peak
    # allocation stays far below the size of the report.json it writes.
    scenario = with_overrides(ingest_scenario(SCENARIOS / "star10.json"), duration_seconds=2000.0)
    report = run(scenario)
    tracemalloc.start()
    try:
        (path,) = emit_report(report, "json", tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 2_000_000
    assert peak < size / 4, (peak, size)


def test_relay_ledger_holds_under_100_bytes_a_row():
    # The ledger is the report's largest part: dropping it frees what its
    # rows hold, which must stay under 100 B a row (a 7-key dict is ~430 B).
    scenario = with_overrides(ingest_scenario(SCENARIOS / "star10.json"), duration_seconds=2000.0)
    tracemalloc.start()
    try:
        report = run(scenario)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        rows = len(report.relay_ledger)
        report.relay_ledger = RelayLedger()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows > 5000
    assert freed / rows < 100, (freed, rows)


def test_series_view_reads_as_its_list():
    # Four links over six ticks, tick-major: link i's series is column[i::4].
    column = [100 + k for k in range(24)]
    bounds = (None, *range(-8, 9), 10**6, -(10**6))
    for start in range(4):
        view, values = SeriesView(column, start, 4), column[start::4]
        assert len(view) == 6
        for i in range(-6, 6):
            assert view[i] == values[i]
        for i in (6, -7, 10**6, -(10**6)):
            with pytest.raises(IndexError):
                view[i]
        for step in (None, 1, 2, 3, 7, -1, -2, -3, -7):
            for lo in bounds:
                for hi in bounds:
                    part = view[lo:hi:step]
                    assert type(part) is list and part == values[lo:hi:step], (lo, hi, step)
        assert [v for v in view] == values and list(reversed(view)) == values[::-1]
        assert sum(view) == sum(values) and max(view) == max(values)
        assert view == values and values == view and view == SeriesView(values, 0, 1)
        assert SeriesView(values, 0, 1) == view and not view != values
        assert view != values[:-1] and view != values[::-1] and view != tuple(values)
        assert view != SeriesView(column, (start + 1) % 4, 4)
    assert SeriesView([], 0, 3) == [] and not SeriesView([], 0, 3)
    assert SeriesView([1, 2], 2, 3) == [] and len(SeriesView([1, 2], 2, 3)) == 0


def test_iterating_a_series_view_copies_none_of_its_column():
    # A view used to iterate a slice of its column: at 10**6 ticks, CSV
    # emission's max RSS rose by 34 MB over the run's.
    column = array("q", [0]) * 10**6  # 8 MB
    views = (SeriesView(column, 0, 1), SeriesView(column, 1, 4), SeriesView(list(column), 2, 3))
    for view in views:
        gc.collect()
        tracemalloc.start()
        try:
            assert sum(1 for _ in view) == len(view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (view.start, view.step, peak)


def test_series_view_is_read_only():
    view = SeriesView([1, 2, 3, 4], 0, 2)
    assert not hasattr(view, "append") and not hasattr(view, "__setitem__")
    with pytest.raises(TypeError):
        view[0] = 5
    with pytest.raises(TypeError):
        del view[0]
    assert view == [1, 3]


def test_engine_series_are_views_and_to_dict_gives_lists(report):
    n_ticks = len(report.times)
    typecodes = {
        "pool_available": "i",
        "deposited_bits": "i",
        "active": "b",
        "backlog_cost": "d",
        "processed_cost": "d",
        "active_link_count": "i",
        "times": "d",
    }
    held = {("hub", kind): values for kind, values in report.hub["series"].items()}
    for name, link in report.links.items():
        held.update({(name, kind): values for kind, values in link["series"].items()})
    held["times", "times"] = report.times
    assert len(held) == 3 * len(report.links) + 4
    for (_, kind), values in held.items():
        assert isinstance(values, SeriesView) and len(values) == n_ticks
        assert values.column.typecode == typecodes[kind]
    data = report.to_dict()
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == report.to_json()
    given = {("hub", kind): values for kind, values in data["hub"]["series"].items()}
    for name, link in data["links"].items():
        given.update({(name, kind): values for kind, values in link["series"].items()})
    given["times", "times"] = data["times"]
    assert given.keys() == held.keys()
    for key, values in given.items():
        assert type(values) is list and values == held[key]
        values.append(-1)  # a new list, which the report does not hold
        assert len(held[key]) == n_ticks
    assert report.times == [k * report.tick_seconds for k in range(1, n_ticks + 1)]


def _csv_bytes(report, out_dir):
    return {p.name: p.read_bytes() for p in emit_report(report, "csv", out_dir)}


def _with_links(report, links):
    return dataclasses.replace(report, links=links)


def _listed(links):
    """links with each series a plain list."""
    return {
        name: {**link, "series": {kind: list(v) for kind, v in link["series"].items()}}
        for name, link in links.items()
    }


@pytest.mark.parametrize(
    "doc",
    [
        {"seed": 3, "duration_seconds": 8.0, "branches": [{"id": "a"}, {"id": "b"}, {"id": "c"}]},
        {"seed": 4, "duration_seconds": 6.0, "branches": [{"id": "only"}]},
        {"seed": 5, "duration_seconds": 1.0, "branches": [{"id": "a"}, {"id": "b"}]},
        {"seed": 6, "duration_seconds": 1.0, "branches": [{"id": "only"}]},
    ],
    ids=["three-branches", "one-branch", "one-tick", "one-branch-one-tick"],
)
def test_csv_rows_from_views_and_from_lists_are_the_same_bytes(doc, tmp_path):
    engine_report = run(scenario_from_dict(doc))
    links = engine_report.links
    pools = [link["series"]["pool_available"] for link in links.values()]
    # The engine's views take the one-slice-per-row path, the lists zip's.
    assert not isinstance(_series_rows(engine_report.times, pools), zip)
    listed = _with_links(engine_report, _listed(links))
    assert isinstance(_series_rows(listed.times, [list(v) for v in pools]), zip)
    expected = _csv_bytes(listed, tmp_path / "lists")
    assert _csv_bytes(engine_report, tmp_path / "views") == expected
    rows = expected["pool_available.csv"].decode().splitlines()
    assert len(rows) == 1 + len(engine_report.times) and rows[0] == ",".join(["time", *links])
    # Views out of link order take zip's path too, with the same bytes as their lists.
    backwards = dict(reversed(links.items()))
    assert _csv_bytes(_with_links(engine_report, backwards), tmp_path / "back") == _csv_bytes(
        _with_links(engine_report, _listed(backwards)), tmp_path / "back-lists"
    )


def _reference_csv(report):
    """Each CSV file's bytes as csv.writer writes them, from the report's
    series read as plain lists."""
    hub = report.hub.get("series", {})
    files = {
        "meta.csv": [
            ["format_version", "seed", "duration_seconds", "tick_seconds"],
            [FORMAT_VERSION, report.seed, report.duration_seconds, report.tick_seconds],
        ]
    }
    for kind in ("pool_available", "deposited_bits"):
        columns = [list(link["series"][kind]) for link in report.links.values()]
        files[kind + ".csv"] = [["time", *report.links], *zip(report.times, *columns)]
    names = sorted(hub)
    files["hub.csv"] = [["time", *names], *zip(report.times, *map(hub.get, names))]
    out = {}
    for name, rows in files.items():
        text = io.StringIO(newline="")
        csv.writer(text).writerows(rows)
        out[name] = text.getvalue().encode()
    return out


@pytest.fixture
def writerow_rows(monkeypatch):
    """Stand in for the csv module where starqkd.report looks it up, with
    writers that have only writerow; returns the rows they are given."""
    rows = []

    def writer(fh):
        real = csv.writer(fh)

        def writerow(row):
            rows.append(list(row))
            return real.writerow(row)

        return types.SimpleNamespace(writerow=writerow)

    monkeypatch.setattr("starqkd.report.csv", types.SimpleNamespace(writer=writer))
    return rows


# Ints and floats at the edges of their reprs: huge, negative zero,
# subnormal and non-finite.
_EDGE_NUMBERS = [0, -1, 2**64 + 1, 10**300, 0.1, -0.0, 5e-324, 1e300, _INF, -_INF, _NAN]


@pytest.mark.parametrize("as_lists", [False, True], ids=["views", "lists"])
def test_csv_rows_of_numbers_are_csv_writers_bytes(as_lists, writerow_rows, tmp_path):
    branches = [{"id": "a"}, {"id": "b"}, {"id": "c"}]
    report = run(scenario_from_dict({"seed": 8, "duration_seconds": 8.0, "branches": branches}))
    # Ids that need quoting, to show headers still go through csv.writer.
    report = _with_links(report, dict(zip(["a", "b,c", 'say "d"'], report.links.values())))
    n = len(_EDGE_NUMBERS)

    def edges(values, shift):
        """A list column as long as values' own, holding the edge numbers."""
        return [_EDGE_NUMBERS[(i + shift) % n] for i in range(len(values))]

    # The series as views over list columns, the form a run past 2**63 bits
    # takes, of the edge numbers. Row 1 is a float time, then three ints.
    columns = {}
    for kind, shift in (("pool_available", 0), ("deposited_bits", 5)):
        view = next(iter(report.links.values()))["series"][kind]
        columns[kind] = edges(view.column, shift)
    links = {
        name: {
            **link,
            "series": {
                kind: SeriesView(columns.get(kind, view.column), view.start, view.step)
                for kind, view in link["series"].items()
            },
        }
        for name, link in report.links.items()
    }
    hub_series = {
        name: SeriesView(edges(values, shift), 0, 1)
        for shift, (name, values) in enumerate(report.hub["series"].items())
    }
    report = dataclasses.replace(report, links=links, hub={**report.hub, "series": hub_series})
    if as_lists:
        report = _with_links(report, _listed(report.links))
    expected = _reference_csv(report)
    assert _csv_bytes(report, tmp_path) == expected
    # Every file is all numbers: csv.writer wrote only the four headers.
    assert [row[0] for row in writerow_rows] == ["format_version", "time", "time", "time"]
    assert b'"b,c","say ""d"""' in expected["pool_available.csv"]
    for text in (b"1.0,0,-1,18446744073709551617\r\n", b",-0.0,", b",5e-324,", b",nan"):
        assert text in expected["pool_available.csv"]


def test_csv_files_not_all_numbers_go_through_csv_writer(writerow_rows, tmp_path):
    # Text, None, bools, an int enum member and a float subclass: each row
    # holding one is written by csv.writer, and every row of these files
    # but pool_available.csv's holds one.
    report = MetricsReport(
        seed=_Level.LOW,
        duration_seconds=3.0,
        tick_seconds=1.0,
        times=[1.0, 2.0, 3.0],
        links={
            "x,y": {
                "series": {"pool_available": [1, 2, 3], "deposited_bits": ["a,b", 'say "hi"', None]}
            },
            "z": {
                "series": {
                    "pool_available": [4, 5.5, -0.0],
                    "deposited_bits": [True, _Level.HIGH, _Ratio(0.5)],
                }
            },
        },
        hub={"series": {"backlog_cost": [0.0, 1.5, _INF], "note": ["ok", "", "a\nb"]}},
    )
    expected = _reference_csv(report)
    assert _csv_bytes(report, tmp_path) == expected
    # pool_available.csv is all numbers: only its header went through csv.writer.
    assert len(writerow_rows) == 4 + 1 + 3 + 3
    # Each row as csv.writer writes it: quoted text, None empty, True and
    # the member as str, the float subclass as its repr.
    deposits = expected["deposited_bits.csv"]
    member = str(_Level.HIGH).encode()
    for text in (b'1.0,"a,b",True', b'2.0,"say ""hi""",' + member, b"3.0,,ratio"):
        assert text in deposits


def test_csv_rows_are_decided_one_by_one(writerow_rows, tmp_path):
    # deposited_bits.csv holds text at tick 2 only: that row goes through
    # csv.writer, and the rows around it are written as text.
    report = MetricsReport(
        seed=5,
        duration_seconds=3.0,
        tick_seconds=1.0,
        times=[1.0, 2.0, 3.0],
        links={
            "a": {"series": {"pool_available": [7, 8, 9], "deposited_bits": [1, "x", 3]}},
            "b": {"series": {"pool_available": [0.5, 1.5, 2], "deposited_bits": [4, 5, 6.5]}},
        },
        hub={"series": {"backlog_cost": [0.0, 1.5, 2.5]}},
    )
    expected = _reference_csv(report)
    assert _csv_bytes(report, tmp_path) == expected
    assert writerow_rows == [
        ["format_version", "seed", "duration_seconds", "tick_seconds"],
        ["time", "a", "b"],
        ["time", "a", "b"],
        [2.0, "x", 5],
        ["time", "backlog_cost"],
    ]
    assert expected["deposited_bits.csv"] == b"time,a,b\r\n1.0,1,4\r\n2.0,x,5\r\n3.0,3,6.5\r\n"


def test_rows_of_the_engines_typed_columns_are_not_type_checked(report, monkeypatch, tmp_path):
    # The engine's series and times are int and float arrays, so no CSV row
    # or JSON list read from them goes through the number check: in CSV only
    # meta.csv's row does, and in JSON only lists of other things, here a
    # link's flows.
    real = _only_numbers
    checked = []

    def only_numbers(values):
        checked.append(list(values))
        return real(values)

    monkeypatch.setattr("starqkd.report._only_numbers", only_numbers)
    assert _csv_bytes(report, tmp_path) == _reference_csv(report)
    meta = [FORMAT_VERSION, report.seed, report.duration_seconds, report.tick_seconds]
    assert checked == [meta]
    checked.clear()
    assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    assert checked and not any(map(real, checked))


def test_emit_csv_streams_its_rows(tmp_path):
    # emit_report writes each row as it is made: its peak allocation stays
    # far below the largest file it writes, which a list of all rows would
    # exceed. The peak holds a fixed ~130 KB, csv.writer's record buffer
    # for the header, so the star is large enough for that to be small.
    ticks = 600
    bits = 512 * ticks  # every round's authentication, reserved
    doc = {
        "seed": 7,
        "duration_seconds": float(ticks),
        "hub": {"channel_count": 40, "cpu_capacity_per_sec": 1.44e6},
        "branches": [
            {"id": f"w{i:03d}", "distance_km": 5.0 + 0.1 * (i % 50), "auth_reserved_bits": bits}
            for i in range(300)
        ],
    }
    report = run(scenario_from_dict(doc))
    assert max(report.hub["series"]["backlog_cost"]) > 0  # the hub is overloaded
    tracemalloc.start()
    try:
        paths = emit_report(report, "csv", tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = max(p.stat().st_size for p in paths)
    assert size > 1_000_000
    assert peak < size / 4, (peak, size)
