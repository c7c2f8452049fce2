"""Print every value that moved between two `qlct verify --report` files.

    python tests/report_diff.py OLD NEW

The k-th report of a name in NEW is paired with the k-th report of that
name in OLD. Each value that differs is printed in NEW's report order:
its path in NEW, the old and new value and the relative change, marked
REJECTED where `report_mismatches`, the comparator of the pinned seed-0
report (`test_acceptance.test_verify_all_matches_pinned_report`), would
not accept the new value. Reports that only one file has are counted by
name. After the totals comes one line per report name with a moved
value, in NEW's order: `young: 12 moved, 0 rejected`. Identical files
print nothing. Exits 1 when a change is rejected
or a report is added or dropped, else 0.
"""

import argparse
import json
import sys
from collections import Counter

import pytest

ABSENT = "<absent>"


def report_mismatches(got, want, where="report"):
    """Every path where got differs from want: keys, strings and ints
    equal, floats to rel 1e-12 / abs 1e-14. Lists of reports of another
    length differ in one line: both counts and the first index whose
    report names differ."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys {got!r} vs pinned {want!r}"]
        return [m for key in want
                for m in report_mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if isinstance(got, list) and len(got) != len(want) and all(
                isinstance(r, dict) for r in got + want):
            got_names, want_names = ([r.get("name") for r in rs] for rs in (got, want))
            i = next((i for i, (g, w) in enumerate(zip(got_names, want_names)) if g != w),
                     min(len(got), len(want)))
            return [f"{where}: {len(got)} reports vs pinned {len(want)}; names first differ at "
                    f"[{i}]: {got_names[i:i + 1]} vs pinned {want_names[i:i + 1]}"]
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} vs pinned {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in report_mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float):
        if not isinstance(got, float):
            return [f"{where}: {got!r} is not a float"]
        ok = got == pytest.approx(want, rel=1e-12, abs=1e-14)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{where}: {got!r} vs pinned {want!r}"]


def _leaves(value, where: str) -> dict:
    """{path: scalar} for every scalar of a JSON value, in file order."""
    if isinstance(value, dict):
        return {p: v for key in value for p, v in _leaves(value[key], f"{where}.{key}").items()}
    if isinstance(value, list):
        return {p: v for i, x in enumerate(value) for p, v in _leaves(x, f"{where}[{i}]").items()}
    return {where: value}


def _relative(old, new) -> str:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    return f"{(new - old) / abs(old):+.3g}" if numbers and old != 0 else "n/a"


def report_diff(old: list, new: list) -> tuple[list[str], bool]:
    """The lines to print for the OLD and NEW report lists, and whether
    any of them is a rejected change or a report added or dropped."""
    olds: dict = {}
    for rep in old:
        olds.setdefault(rep["name"], []).append(rep)
    lines, moved, rejected, seen = [], 0, 0, Counter()
    tally: dict = {}  # name -> [moved, rejected], in NEW's order
    for i, rep in enumerate(new):
        k = seen[rep["name"]]
        seen[rep["name"]] += 1
        if k >= len(olds.get(rep["name"], ())):
            continue  # an added report: counted below
        where = f"report[{i}]"
        before, after = _leaves(olds[rep["name"]][k], where), _leaves(rep, where)
        for path in {**after, **before}:
            a, b = before.get(path, ABSENT), after.get(path, ABSENT)
            if repr(a) == repr(b):
                continue
            bad = ABSENT in (a, b) or bool(report_mismatches(b, a, path))
            moved += 1
            rejected += bad
            counts = tally.setdefault(rep["name"], [0, 0])
            counts[0] += 1
            counts[1] += bad
            lines.append(f"{path}: {a!r} -> {b!r} (rel {_relative(a, b)})"
                         + ("  REJECTED" if bad else ""))
    old_names, new_names = Counter(r["name"] for r in old), Counter(r["name"] for r in new)
    for what, names in (("added", new_names - old_names), ("dropped", old_names - new_names)):
        if names:
            lines.append(f"{what}: " + ", ".join(f"{n} {name}" for name, n in names.items()))
    if lines:
        lines.append(f"{moved} values moved, {rejected} rejected; "
                     f"{len(old)} -> {len(new)} reports")
        lines += [f"{name}: {m} moved, {r} rejected" for name, (m, r) in tally.items()]
    return lines, rejected > 0 or old_names != new_names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.old) as fh_old, open(args.new) as fh_new:
        lines, changed = report_diff(json.load(fh_old), json.load(fh_new))
    for line in lines:
        print(line)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
