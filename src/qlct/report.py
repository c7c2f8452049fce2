"""Inequality check records and their JSON/CSV serialization."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .signal import replacing


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 1.0 if lhs == 0.0 else float("inf")
    return lhs / rhs


@dataclass
class InequalityReport:
    """One verified relation: lhs vs rhs with the satisfaction margin.

    margin is oriented so that positive means the relation holds
    (lhs - rhs for lower bounds, rhs - lhs for upper bounds,
    -|lhs - rhs| for equalities). ratio is always lhs / rhs.
    empirical_constant records the constant that would make the relation
    an equality on this input, for the existential-constant theorems.
    gate is the record `gated` stamps on it.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    ratio: float
    empirical_constant: float | None = None
    params: dict = field(default_factory=dict)
    grid: dict | None = None
    seed: int | None = None
    notes: str = ""
    gate: dict | None = None

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "margin": float(self.margin),
            "ratio": float(self.ratio),
            "empirical_constant":
                None if self.empirical_constant is None else float(self.empirical_constant),
            "params": _plain(self.params),
            "grid": _plain(self.grid) if self.grid is not None else None,
            "seed": self.seed,
            "gate": self.gate,
        }
        if self.notes:
            d["notes"] = self.notes
        return d


def lower_bound(name: str, lhs: float, rhs: float, **kw) -> InequalityReport:
    """Relation lhs >= rhs."""
    lhs, rhs = float(lhs), float(rhs)
    return InequalityReport(name, lhs, rhs, lhs - rhs, _ratio(lhs, rhs), **kw)


def upper_bound(name: str, lhs: float, rhs: float, **kw) -> InequalityReport:
    """Relation lhs <= rhs."""
    lhs, rhs = float(lhs), float(rhs)
    return InequalityReport(name, lhs, rhs, rhs - lhs, _ratio(lhs, rhs), **kw)


def equality(name: str, lhs: float, rhs: float, **kw) -> InequalityReport:
    """Relation lhs == rhs up to quadrature error; margin is -|lhs - rhs|."""
    lhs, rhs = float(lhs), float(rhs)
    return InequalityReport(name, lhs, rhs, -abs(lhs - rhs), _ratio(lhs, rhs), **kw)


def gated(rep: InequalityReport, kind: str, tol: float | None = None) -> InequalityReport:
    """Stamp rep with its gate record {"kind", "tol", "passed"}: passed is
    margin >= tol ("margin"), |ratio - 1| <= tol ("ratio") or ratio > 0
    ("positive"), so false on a NaN, or None for a record-only "none"."""
    passed = {"margin": lambda: rep.margin >= tol, "ratio": lambda: abs(rep.ratio - 1.0) <= tol,
              "positive": lambda: rep.ratio > 0.0, "none": lambda: None}[kind]()
    rep.gate = {"kind": kind, "tol": tol, "passed": None if passed is None else bool(passed)}
    return rep


def _plain(obj):
    """Recursively coerce numpy scalars/arrays so json sees plain Python."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def reports_to_json(reports: list[InequalityReport], fh) -> None:
    """Deterministic JSON array (sorted keys, repr floats), the bytes of
    `json.dump(list, fh, sort_keys=True, indent=2)`, written into the open
    text file fh one report at a time, so no list of every report's dict."""
    sep = "["
    for r in reports:
        text = json.dumps(r.to_dict(), sort_keys=True, indent=2)
        fh.write(sep + "\n  " + text.replace("\n", "\n  "))
        sep = ","
    fh.write("[]" if sep == "[" else "\n]")


def reports_to_csv(reports: list[InequalityReport], fh) -> None:
    """One row per report, params serialized as a JSON cell, written into
    the open text file fh row by row."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["name", "lhs", "rhs", "margin", "ratio",
                     "empirical_constant", "seed", "params", "gate"])
    for r in reports:
        d = r.to_dict()
        writer.writerow([
            d["name"], repr(d["lhs"]), repr(d["rhs"]), repr(d["margin"]),
            repr(d["ratio"]),
            "" if d["empirical_constant"] is None else repr(d["empirical_constant"]),
            "" if d["seed"] is None else d["seed"],
            json.dumps(d["params"], sort_keys=True),
            json.dumps(d["gate"], sort_keys=True),
        ])


def write_reports(reports: list[InequalityReport], json_path, csv_path) -> None:
    """Write the JSON and the CSV of `reports`, each through `replacing`,
    so a failed encode leaves no partial report."""
    for path, write in ((json_path, reports_to_json), (csv_path, reports_to_csv)):
        with replacing(path, "w") as fh:
            write(reports, fh)
