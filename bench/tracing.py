"""Span tracer that wraps qlct's public functions from outside the package.

The qlct modules import each other's functions with ``from ... import``,
so a wrapper has to replace every binding a caller looks up, not only the
defining module's attribute. `BINDINGS` lists those bindings per span
name. Nothing is wrapped until `Tracer.recording` is entered, and every
original is restored when it exits, so untraced operations run the
program exactly as shipped.

Spans are kept in memory as ``[name_id, start, end, parent, op]`` rows
and written out once, when the run ends. A span's self time is its
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import math
import time
from collections import defaultdict

import numpy as np

# The eleven verify suites; cmd_verify looks them up in ``cli.SUITES``.
from qlct.cli import VERIFY_NAMES as SUITE_NAMES

# span name -> (module, attribute) bindings that callers look up
BINDINGS = {
    "quat.qmul": [("qlct.qlct2d", "qmul"), ("qlct.gabor", "qmul"),
                  ("qlct.signal", "qmul")],
    "quat.split": [("qlct.qlct2d", "to_complex_pair"),
                   ("qlct.qlct2d", "from_complex_pair"),
                   ("qlct.gabor", "to_complex_pair"),
                   ("qlct.gabor", "from_complex_pair")],
    "signal.load": [("qlct.signal", "load"), ("qlct.gabor", "load")],
    "signal.save": [("qlct.signal", "save"), ("qlct.gabor", "save")],
    "signal.make_window": [("qlct.signal", "make_window")],
    "lct1d.lct_fast": [("qlct.qlct2d", "lct_fast")],
    "lct1d.fft": [("scipy.fft", "fft"), ("scipy.fft", "ifft")],
    "lct1d.lct_scale_chirp": [("qlct.qlct2d", "lct_scale_chirp")],
    "qlct2d.forward": [("qlct.qlct2d", "qlct_forward_fast"),
                       ("qlct.cli", "qlct_forward_fast"),
                       ("qlct.uncertainty", "qlct_forward_fast")],
    "qlct2d.inverse": [("qlct.qlct2d", "qlct_inverse"),
                       ("qlct.cli", "qlct_inverse")],
    "gabor.rows": [("qlct.gabor", "iter_gabor_blocks"),
                   ("qlct.uncertainty", "iter_gabor_blocks")],
    "gabor.analyze": [("qlct.gabor", "gabor_analyze")],
    "gabor.synthesize": [("qlct.gabor", "gabor_synthesize")],
    "gabor.spectrogram": [("qlct.gabor", "spectrogram")],
    "gabor.export": [("qlct.gabor", "export_pgm"),
                     ("qlct.gabor", "export_field_csv")],
    "gabor.save_coefficients": [("qlct.gabor", "save_coefficients")],
    "gabor.load_coefficients": [("qlct.gabor", "load_coefficients")],
    "gabor.plancherel_check": [("qlct.gabor", "gabor_plancherel_check")],
    "uncertainty.field_stats": [("qlct.uncertainty", "gabor_field_stats")],
    "cli.main": [("qlct.cli", "main")],
    "report.serialize": [("qlct.report", "reports_to_json"),
                         ("qlct.report", "reports_to_csv")],
    "families.build": [("qlct.families", fn) for fn in (
        "default_grid", "gaussian", "dilated_gaussian", "gaussian_chirp",
        "random_smooth", "random_quaternion_signal", "impulse", "normalized")],
}

#: The nine quadrature checks; cli calls them as ``uncertainty.<fn>``.
CHECKS = {
    "heisenberg": "heisenberg_check",
    "log": "log_check",
    "lemma_log": "lemma_log_identity_check",
    "lieb": "lieb_check",
    "young": "young_sup_check",
    "hausdorff_young": "hausdorff_young_check",
    "concentration": "concentration_check",
    "eps_concentration": "epsilon_concentration_check",
    "moment_concentration": "moment_concentration_check",
}
BINDINGS.update({f"uncertainty.check.{name}": [("qlct.uncertainty", fn)]
                 for name, fn in CHECKS.items()})

MODULES = ["quat", "signal", "lct1d", "qlct2d", "gabor", "uncertainty",
           "cli", "report", "families"]

# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, better, the end-to-end metric and workload
# it should move). Counts and times are per traced op unless the unit says
# otherwise.

LAYER_METRICS = [
    ("quat.qmul.calls", "count/op", "lower", "op_s_p50 on gabor-32, verify-all; ~0 on transform-1024"),
    ("quat.qmul.s", "s/op", "lower", "op_s_p50 on gabor-32, verify-all; ~0 on transform-1024"),
    ("quat.split.s", "s/op", "lower", "op_s_p50 on transform-1024"),
    ("signal.load.calls", "count/op", "lower", "op_s_p50 on transform-1024, gabor-32; 0 on verify-all"),
    ("signal.load.s", "s/op", "lower", "op_s_p50 on transform-1024, gabor-32; 0 on verify-all"),
    ("signal.load.mb", "MB/op", "lower", "op_s_p50 on transform-1024, gabor-32; 0 on verify-all"),
    ("signal.save.calls", "count/op", "lower", "op_s_p50 on transform-1024, gabor-32; 0 on verify-all"),
    ("signal.save.s", "s/op", "lower", "op_s_p50 on transform-1024, gabor-32; 0 on verify-all"),
    ("signal.save.mb", "MB/op", "lower", "op_s_p50 on transform-1024, gabor-32; 0 on verify-all"),
    ("signal.make_window.s", "s/op", "lower", "bypass indicator on gabor-32"),
    ("lct1d.lct_fast.calls", "count/op", "lower", "op_s_p50 on gabor-32, verify-all"),
    ("lct1d.lct_fast.rows", "count/op", "lower", "op_s_p50 on gabor-32, verify-all"),
    ("lct1d.lct_fast.self_s", "s/op", "lower", "op_s_p50 on gabor-32, verify-all; small on transform-1024"),
    ("lct1d.fft.calls", "count/op", "lower", "op_s_p50 on transform-1024"),
    ("lct1d.fft.s", "s/op", "lower", "op_s_p50 on transform-1024"),
    ("lct1d.lct_scale_chirp.calls", "count/op", "lower", "op_s_p50 on transform-1024 only"),
    ("lct1d.lct_scale_chirp.s", "s/op", "lower", "op_s_p50 on transform-1024 only"),
    ("lct1d.flops_computed", "flop/op", "lower", "computed 5 N log2 N per FFT row; op_s_p50 on transform-1024"),
    ("lct1d.bytes_computed", "B/op", "lower", "computed 16 B x elements in+out per lct_fast; op_s_p50 on transform-1024"),
    ("qlct2d.forward.calls", "count/op", "lower", "op_s_p50 on transform-1024"),
    ("qlct2d.forward.s", "s/op", "lower", "op_s_p50 on transform-1024"),
    ("qlct2d.inverse.calls", "count/op", "lower", "op_s_p50 on transform-1024"),
    ("qlct2d.inverse.s", "s/op", "lower", "op_s_p50 on transform-1024"),
    ("qlct2d.lct_calls_per_transform", "count", "lower", "exact; 6 today; halving the right kernel lowers it on transform-1024"),
    ("gabor.rows.calls", "count/op", "lower", "op_s_p50 on verify-all, gabor-32"),
    ("gabor.rows.s", "s/op", "lower", "op_s_p50 on verify-all, gabor-32"),
    ("gabor.lct_calls_per_row", "count", "lower", "exact; 6 today; halving the right kernel lowers it on gabor-32, verify-all"),
    ("gabor.analyze.s", "s/op", "lower", "op_s_p50 on gabor-32"),
    ("gabor.synthesize.s", "s/op", "lower", "op_s_p50 on gabor-32"),
    ("gabor.spectrogram.s", "s/op", "lower", "op_s_p50 on gabor-32"),
    ("gabor.export.s", "s/op", "lower", "op_s_p50 on gabor-32"),
    ("gabor.save_coefficients.s", "s/op", "lower", "op_s_p50 on gabor-32"),
    ("gabor.save_coefficients.files", "count/op", "lower", "op_s_p50 on gabor-32"),
    ("gabor.load_coefficients.s", "s/op", "lower", "op_s_p50 on gabor-32"),
    ("gabor.load_coefficients.files", "count/op", "lower", "op_s_p50 on gabor-32"),
    ("gabor.plancherel_check.s", "s/op", "lower", "op_s_p50 on verify-all"),
    ("uncertainty.field_stats.calls", "count/op", "lower", "op_s_p50 on verify-all; 0 elsewhere"),
    ("uncertainty.field_stats.s", "s/op", "lower", "op_s_p50 on verify-all; 0 elsewhere"),
    ("uncertainty.field_stats.rows", "count/op", "lower", "op_s_p50 on verify-all; 0 elsewhere"),
    ("uncertainty.field_stats.distinct_cell_ratio", "ratio", "higher", "below 1 today; one pass per distinct field raises it and lowers op_s_p50 on verify-all only"),
]
LAYER_METRICS += [(f"uncertainty.check.{c}.s", "s/op", "lower", "op_s_p50 on verify-all")
                  for c in CHECKS]
LAYER_METRICS += [(f"cli.suite.{s}.s", "s/op", "lower", "op_s_p50 on verify-all")
                  for s in SUITE_NAMES]
LAYER_METRICS += [
    ("cli.main.self_s", "s/op", "lower", "op_s_p50; large on transform-1024 (finiteness check)"),
    ("report.serialize.s", "s/op", "lower", "op_s_p50 on verify-all"),
    ("families.build_s", "s", "lower", "setup_s on every workload"),
]
LAYER_METRICS += [(f"{m}.errors", "count", "lower", "failed ops on every workload")
                  for m in MODULES]
LAYER_METRICS += [
    ("trace.overhead_ratio", "ratio", "lower", "traced / untraced op_s_p50 of the same run"),
]


# ---------------------------------------------------------------------------
# counters recorded beside the spans


def _count_lct_fast(args, kwargs, result):
    f = args[2]
    return {"lct1d.lct_fast.rows": f.size // f.shape[-1],
            "lct1d.bytes_computed": 16 * (f.size + result[0].size)}


def _count_fft(args, kwargs, result):
    g = args[0]
    n = g.shape[-1]
    return {"lct1d.flops_computed": 5 * n * math.log2(n) * (g.size // n)}


def _count_load(args, kwargs, result):
    return {"signal.load.mb": (result.samples.nbytes + 48) / 1e6}


def _count_save(args, kwargs, result):
    return {"signal.save.mb": (args[1].samples.nbytes + 48) / 1e6}


COUNTERS = {
    "lct1d.lct_fast": _count_lct_fast,
    "lct1d.fft": _count_fft,
    "signal.load": _count_load,
    "signal.save": _count_save,
}


def _digest(arr) -> str:
    return hashlib.sha1(np.ascontiguousarray(arr).tobytes()).hexdigest()


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []          # [name_id, start, end, parent, op]
        self.counters = defaultdict(float)   # (op, counter name) -> value
        self.errors = defaultdict(int)       # module -> exceptions raised
        self.field_keys: set = set()         # (op, field digest key)
        self.op = -1
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[(self.op, name)] += value

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        """Time every call of fn as a span called name."""
        nid = self._id(name)
        module = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                self._close(idx)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.count(key, value)
            return result
        return traced

    def wrap_rows(self, fn):
        """Time each next() of a row generator as one gabor.rows span."""
        nid = self._id("gabor.rows")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        # the exhausting next() yields no row: drop its span
                        self._close(idx)
                        del self.spans[idx:]
                        return
                    except BaseException:
                        self.errors["gabor"] += 1
                        self._close(idx)
                        raise
                    self._close(idx)
                    yield item
            finally:
                gen.close()
        return traced

    def wrap_field_stats(self, fn):
        """gabor_field_stats, counting the (omega, y) cells it sweeps and
        the share that belongs to a field not yet swept in this op."""
        traced = self.wrap("uncertainty.field_stats", fn)

        def counted(f, phi, p, *, method="fast", y_stride=1, **kwargs):
            result = traced(f, phi, p, method=method, y_stride=y_stride, **kwargs)
            ny = (len(range(0, f.grid.n1, y_stride))
                  * len(range(0, f.grid.n2, y_stride)))
            cells = f.grid.n1 * f.grid.n2 * ny
            key = (self.op, _digest(f.samples), _digest(phi.samples),
                   repr(p.to_dict()), method, y_stride)
            self.count("uncertainty.field_stats.cells", cells)
            if key not in self.field_keys:
                self.field_keys.add(key)
                self.count("uncertainty.field_stats.distinct_cells", cells)
            return result
        return functools.wraps(fn)(counted)

    # -- installation -------------------------------------------------------

    def _patches(self):
        """(namespace, key, wrapper) for every binding, looked up afresh so
        the originals are whatever the modules hold right now."""
        for name, bindings in BINDINGS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                if name == "gabor.rows":
                    wrapper = self.wrap_rows(original)
                elif name == "uncertainty.field_stats":
                    wrapper = self.wrap_field_stats(original)
                else:
                    wrapper = self.wrap(name, original, COUNTERS.get(name))
                yield vars(module), attr, wrapper
        suites = importlib.import_module("qlct.cli").SUITES
        for suite in SUITE_NAMES:
            yield suites, suite, self.wrap(f"cli.suite.{suite}", suites[suite])

    @contextlib.contextmanager
    def recording(self, op: int):
        """Install every wrapper, attribute spans to op, restore on exit."""
        saved = []
        self.op = op
        try:
            for namespace, key, wrapper in list(self._patches()):
                saved.append((namespace, key, namespace[key]))
                namespace[key] = wrapper
            yield self
        finally:
            for namespace, key, original in reversed(saved):
                namespace[key] = original
            self.op = -1

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        return {"names": np.array(self.names), "name_id": rows[:, 0].astype(int),
                "start": rows[:, 1], "end": rows[:, 2],
                "parent": rows[:, 3].astype(int), "op": rows[:, 4].astype(int)}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[int(p)].append(i)
    out = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered, reach = 0.0, lo
        for a, b in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out[p] -= covered
    return out


def layer_metrics(tracer: Tracer, traced_ops: list[int], setup_reps: int,
                  overhead_ratio: float) -> dict[str, float]:
    """Every LAYER_METRICS value from the spans of the traced ops."""
    if not tracer.spans:
        raise ValueError("no spans were recorded")
    a = tracer.arrays()
    names = a["names"]
    name = names[a["name_id"]]
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], a["parent"])
    parent_name = np.where(a["parent"] >= 0, name[np.maximum(a["parent"], 0)], "")
    in_op = np.isin(a["op"], traced_ops)
    n_ops = len(traced_ops)

    def sel(span, parents=None, where=in_op):
        m = where & (name == span)
        if parents is not None:
            m &= np.isin(parent_name, parents)
        return m

    def calls(span, parents=None):
        return int(np.count_nonzero(sel(span, parents)))

    def seconds(span):
        return float(dur[sel(span)].sum())

    def counter(key):
        return sum(v for (op, k), v in tracer.counters.items()
                   if k == key and op in traced_ops)

    lct = ["lct1d.lct_fast", "lct1d.lct_scale_chirp"]
    transforms = calls("qlct2d.forward") + calls("qlct2d.inverse")
    rows = calls("gabor.rows")
    cells = counter("uncertainty.field_stats.cells")
    totals = {
        "quat.qmul.calls": calls("quat.qmul"),
        "quat.qmul.s": seconds("quat.qmul"),
        "quat.split.s": seconds("quat.split"),
        "signal.load.calls": calls("signal.load"),
        "signal.load.s": seconds("signal.load"),
        "signal.load.mb": counter("signal.load.mb"),
        "signal.save.calls": calls("signal.save"),
        "signal.save.s": seconds("signal.save"),
        "signal.save.mb": counter("signal.save.mb"),
        "signal.make_window.s": seconds("signal.make_window"),
        "lct1d.lct_fast.calls": calls("lct1d.lct_fast"),
        "lct1d.lct_fast.rows": counter("lct1d.lct_fast.rows"),
        "lct1d.lct_fast.self_s": float(own[sel("lct1d.lct_fast")].sum()),
        "lct1d.fft.calls": calls("lct1d.fft"),
        "lct1d.fft.s": seconds("lct1d.fft"),
        "lct1d.lct_scale_chirp.calls": calls("lct1d.lct_scale_chirp"),
        "lct1d.lct_scale_chirp.s": seconds("lct1d.lct_scale_chirp"),
        "lct1d.flops_computed": counter("lct1d.flops_computed"),
        "lct1d.bytes_computed": counter("lct1d.bytes_computed"),
        "qlct2d.forward.calls": calls("qlct2d.forward"),
        "qlct2d.forward.s": seconds("qlct2d.forward"),
        "qlct2d.inverse.calls": calls("qlct2d.inverse"),
        "qlct2d.inverse.s": seconds("qlct2d.inverse"),
        "gabor.rows.calls": rows,
        "gabor.rows.s": seconds("gabor.rows"),
        "gabor.save_coefficients.files":
            calls("signal.save", ["gabor.save_coefficients"]),
        "gabor.load_coefficients.files":
            calls("signal.load", ["gabor.load_coefficients"]),
        "uncertainty.field_stats.calls": calls("uncertainty.field_stats"),
        "uncertainty.field_stats.s": seconds("uncertainty.field_stats"),
        "uncertainty.field_stats.rows":
            calls("gabor.rows", ["uncertainty.field_stats"]),
        "cli.main.self_s": float(own[sel("cli.main")].sum()),
        "report.serialize.s": seconds("report.serialize"),
    }
    for span in ("analyze", "synthesize", "spectrogram", "export",
                 "save_coefficients", "load_coefficients", "plancherel_check"):
        totals[f"gabor.{span}.s"] = seconds(f"gabor.{span}")
    for c in CHECKS:
        totals[f"uncertainty.check.{c}.s"] = seconds(f"uncertainty.check.{c}")
    for s in SUITE_NAMES:
        totals[f"cli.suite.{s}.s"] = seconds(f"cli.suite.{s}")
    out = {k: v / n_ops for k, v in totals.items()}

    per_transform = sum(calls(s, ["qlct2d.forward", "qlct2d.inverse"]) for s in lct)
    out["qlct2d.lct_calls_per_transform"] = per_transform / transforms if transforms else 0.0
    per_row = calls("lct1d.lct_fast", ["gabor.rows"])
    out["gabor.lct_calls_per_row"] = per_row / rows if rows else 0.0
    out["uncertainty.field_stats.distinct_cell_ratio"] = (
        counter("uncertainty.field_stats.distinct_cells") / cells if cells else 0.0)
    in_setup = a["op"] == -1
    out["families.build_s"] = float(
        own[in_setup & (name == "families.build")].sum()) / setup_reps
    for m in MODULES:
        out[f"{m}.errors"] = tracer.errors.get(m, 0)
    out["trace.overhead_ratio"] = overhead_ratio
    return out
