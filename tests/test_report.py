"""The gate record each verify report carries, and the exit code read off it."""

import io
import json
import math
import re
import tracemalloc

import pytest

from qlct import cli
from qlct.cli import main
from qlct.report import (equality, gated, lower_bound, reports_to_csv, reports_to_json,
                         upper_bound, write_reports)

NAN = float("nan")


def encoded(write, reports) -> str:
    """What write(reports, fh) writes, as a string."""
    buf = io.StringIO()
    write(reports, buf)
    return buf.getvalue()


def exit_code(reports: list[dict]) -> int:
    """The verify exit code from a run's report JSON alone."""
    return 1 if any(r["gate"]["passed"] is False for r in reports) else 0


@pytest.mark.parametrize("kind, tol, passing, failing", [
    # margin >= tol, at the boundary and just past it
    ("margin", -1e-6, lower_bound("r", 1.0, 1.0 + 5e-7), lower_bound("r", 1.0, 1.0 + 2e-6)),
    ("margin", 0.0, upper_bound("r", 1.0, 1.0), upper_bound("r", 1.0 + 1e-15, 1.0)),
    # |ratio - 1| <= tol, on either side of 1
    ("ratio", 0.05, equality("r", 1.04, 1.0), equality("r", 1.06, 1.0)),
    ("ratio", 0.05, equality("r", 0.96, 1.0), equality("r", 0.94, 1.0)),
    # ratio > 0
    ("positive", None, lower_bound("r", 1e-300, 1.0), lower_bound("r", 0.0, 1.0)),
    ("positive", None, lower_bound("r", 2.0, 1.0), lower_bound("r", -2.0, 1.0)),
])
def test_each_kind_passes_and_fails_on_either_side_of_its_tolerance(kind, tol, passing,
                                                                   failing):
    for rep, passed in ((passing, True), (failing, False)):
        assert gated(rep, kind, tol).gate == {"kind": kind, "tol": tol, "passed": passed}


@pytest.mark.parametrize("kind, tol", [("margin", -1e-6), ("margin", 0.0), ("ratio", 0.05),
                                       ("positive", None)])
@pytest.mark.parametrize("lhs", [NAN, 1.0])
def test_each_kind_fails_on_a_nan_margin_or_ratio(kind, tol, lhs):
    rep = lower_bound("r", lhs, NAN if lhs == 1.0 else 1.0)
    assert math.isnan(rep.margin) and math.isnan(rep.ratio)
    assert gated(rep, kind, tol).gate["passed"] is False


def test_a_record_only_report_never_fails_a_run():
    out = cli.Collector(0)
    for rep in (upper_bound("r", 9.1, 1.0), lower_bound("r", NAN, 1.0),
                equality("r", math.inf, 1.0)):
        assert out.add(rep, ("none",)).gate == {"kind": "none", "tol": None, "passed": None}
    assert out.failures == []


def test_collector_add_requires_a_gate():
    out = cli.Collector(0)
    with pytest.raises(TypeError):
        out.add(lower_bound("r", 1.0, 0.0))
    with pytest.raises(TypeError):
        out.add(lower_bound("r", 1.0, 0.0), family="gaussian")
    assert out.reports == []


def test_failures_name_the_report_index_name_and_tags():
    out = cli.Collector(3)
    out.add(lower_bound("a", 1.0, 0.0), ("margin", 0.0), family="gaussian")
    out.add(lower_bound("b", 0.0, 1.0), ("margin", 0.0), family="gaussian", trial=4)
    out.add(equality("c", 2.0, 1.0, notes="why"), ("ratio", 0.5))
    assert [line.split(":")[0] for line in out.failures] == [
        "[1] b family gaussian trial 4", "[2] c"]
    assert out.failures[1].endswith("(why)")
    assert [r.seed for r in out.reports] == [3, 3, 3]


def test_json_and_csv_carry_the_gate():
    reps = [gated(lower_bound("a", 3.0, 2.0), "margin", 0.5),
            gated(upper_bound("b", 3.0, 2.0), "none")]
    parsed = json.loads(encoded(reports_to_json, reps))
    assert [r["gate"] for r in parsed] == [{"kind": "margin", "tol": 0.5, "passed": True},
                                           {"kind": "none", "tol": None, "passed": None}]
    lines = encoded(reports_to_csv, reps).splitlines()
    assert lines[0].endswith(",params,gate")
    assert lines[2].endswith('"{""kind"": ""none"", ""passed"": null, ""tol"": null}"')


def test_a_failing_run_exits_as_its_report_json_says(tmp_path, capsys):
    """heisenberg on 16x16 fails its dilation stability: the exit code and
    the FAIL lines are read off the gates the report JSON holds."""
    rpt = tmp_path / "h.json"
    code = main(["verify", "heisenberg", "--grid", "16x16", "--trials", "2",
                 "--report", str(rpt)])
    reports = json.loads(rpt.read_text())
    assert code == exit_code(reports) == 1
    failed = [i for i, r in enumerate(reports) if r["gate"]["passed"] is False]
    assert failed and {reports[i]["name"] for i in failed} == {"heisenberg-dilation-stability"}
    err = capsys.readouterr().err
    assert [int(i) for i in re.findall(r"^FAIL \[(\d+)\] ", err, re.M)] == failed
    assert err.count("\n") == len(failed)


def test_a_failed_encode_leaves_no_partial_report(tmp_path):
    """Each file is encoded into a .part file that replaces it only once
    whole: a report json cannot encode fails mid-array and leaves the
    earlier JSON and CSV as they were."""
    json_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    json_path.write_text("old json")
    csv_path.write_text("old csv")
    reps = [gated(lower_bound("a", 3.0, 2.0), "margin", 0.5),
            gated(lower_bound("b", 3.0, 2.0, params={"bad": object()}), "margin", 0.5)]
    with pytest.raises(TypeError):
        write_reports(reps, json_path, csv_path)
    assert json_path.read_text() == "old json" and csv_path.read_text() == "old csv"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]
    write_reports(reps[:1], json_path, csv_path)
    assert json_path.read_text() == encoded(reports_to_json, reps[:1])
    assert csv_path.read_text() == encoded(reports_to_csv, reps[:1])


def _reports(n):
    """n distinct gated reports with notes (some with a line break), a grid
    and nested params, empty ones among them."""
    return [gated(lower_bound(f"r{i}", 1.0 + i, 0.5, seed=i, grid={"n1": 4, "dx1": 0.5},
                              notes="two\nlines" if i % 2 else "",
                              params={"i": i, "A": {"A1": [1.0, 0.0, -0.5, 1.0], "e": {}},
                                      "rows": [[i, {"k": None}], []]}),
                  "margin", 0.0) for i in range(n)]


@pytest.mark.parametrize("n", [0, 1, 7])
def test_json_is_the_indented_dump_of_the_list_byte_for_byte(n):
    reps = _reports(n)
    want = json.dumps([r.to_dict() for r in reps], sort_keys=True, indent=2)
    assert encoded(reports_to_json, reps) == want


class _Discard:
    """A text file that keeps nothing written to it."""

    def write(self, text):
        return len(text)


def test_json_encoder_holds_one_report_at_a_time():
    # each report is encoded and written before the next one's dict is built,
    # so ten times the reports cost no more memory to encode
    peaks = []
    for n in (200, 2000):
        reps = _reports(n)
        tracemalloc.start()
        try:
            reports_to_json(reps, _Discard())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 64 << 10, peaks
