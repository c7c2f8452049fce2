"""Self-test of `tests/report_diff.py` on the pinned seed-0 report."""

import json
import math
from pathlib import Path

import report_diff

PINNED = Path(__file__).parent / "data" / "verify_all_seed0.json"


def _write(path, reports):
    path.write_text(json.dumps(reports, sort_keys=True, indent=2))
    return str(path)


def _digit_moved(value: float, at: int) -> float:
    """value with character `at` of its repr, a digit, moved up by one (9 to
    0); where that names value itself (a last digit below its float's
    resolution), the next float in the direction the digit moved."""
    text = repr(value)
    digit = int(text[at])
    moved = float(text[:at] + str((digit + 1) % 10) + text[at + 1:])
    if moved == value:
        moved = math.nextafter(value, math.copysign(math.inf, value if digit < 9 else -value))
    assert moved != value
    return moved


def test_identical_files_print_nothing(capsys):
    assert report_diff.main([str(PINNED), str(PINNED)]) == 0
    assert capsys.readouterr().out == ""


def test_a_moved_lhs_is_listed_and_flagged_at_its_path(tmp_path, capsys):
    reports = json.loads(PINNED.read_text())
    i = next(i for i, r in enumerate(reports) if r["name"] == "heisenberg")
    old = reports[i]["lhs"]
    # the first digit after the point: far outside the comparator
    reports[i]["lhs"] = _digit_moved(old, repr(old).index(".") + 1)
    assert report_diff.main([str(PINNED), _write(tmp_path / "new.json", reports)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"report[{i}].lhs: {old!r} -> {reports[i]['lhs']!r} (rel ")
    assert lines[0].endswith("  REJECTED")
    assert lines[1:] == [f"1 values moved, 1 rejected; {len(reports)} -> {len(reports)} reports",
                         "heisenberg: 1 moved, 1 rejected"]


def test_a_rounding_move_is_listed_unflagged_and_a_dropped_report_is_counted(tmp_path,
                                                                              capsys):
    reports = json.loads(PINNED.read_text())
    i = next(i for i, r in enumerate(reports) if r["name"] == "heisenberg")
    old = reports[i]["lhs"]
    # the last digit of a 17-digit mantissa: a rounding-level move
    mantissa = repr(old).split("e")[0]
    assert len(mantissa) >= 17
    reports[i]["lhs"] = new = _digit_moved(old, len(mantissa) - 1)
    dropped = reports.pop()
    assert report_diff.main([str(PINNED), _write(tmp_path / "new.json", reports)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"report[{i}].lhs: {old!r} -> {new!r} (rel {(new - old) / abs(old):+.3g})",
        f"dropped: 1 {dropped['name']}",
        f"1 values moved, 0 rejected; {len(reports) + 1} -> {len(reports)} reports",
        "heisenberg: 1 moved, 0 rejected"]


def test_the_tally_counts_each_moved_name_in_the_new_files_order(tmp_path, capsys):
    """One line per report name with a moved value, after the totals, in
    the order the name first moves in NEW; unmoved names get none."""
    reports = json.loads(PINNED.read_text())
    names = ("concentration", "young")
    young = [i for i, r in enumerate(reports) if r["name"] == "young"][:2]
    conc = [i for i, r in enumerate(reports) if r["name"] == "concentration"]
    for i in young + conc:  # one ulp up: a rounding-level move
        reports[i]["rhs"] = math.nextafter(reports[i]["rhs"], math.inf)
    i = conc[0]
    margin = reports[i]["margin"]
    reports[i]["margin"] = _digit_moved(margin, repr(margin).index(".") + 1)
    assert report_diff.main([str(PINNED), _write(tmp_path / "new.json", reports)]) == 1
    lines = capsys.readouterr().out.splitlines()
    moved = len(young) + len(conc) + 1
    first = min(young + conc)
    order = names if reports[first]["name"] == "concentration" else names[::-1]
    tally = {"young": f"young: {len(young)} moved, 0 rejected",
             "concentration": f"concentration: {len(conc) + 1} moved, 1 rejected"}
    assert lines[-3:] == [f"{moved} values moved, 1 rejected; {len(reports)} -> "
                          f"{len(reports)} reports", *(tally[n] for n in order)]
