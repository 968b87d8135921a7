"""Span tracing of the d21alpha layers, installed from outside the package.

Each wrapped entry point records one span per call: its name, start and end
time, the span that was open when it was called, and the op it belongs to.
Spans are kept in flat arrays while the round runs and written out once at
the end.  A few wrappers also record exact work counts (matrix cells,
pivots, distinct action columns, equation rows, components); these depend
only on the inputs, so two runs with one seed must report the same counts.
"""
from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array
from collections import Counter

import numpy as np

from d21alpha import algebra, cli, cohomology, enveloping, linalg

# span name -> (owner, attribute); module functions are re-bound under every
# name a d21alpha module imported them as (cli imports h1 and psi by name)
ENTRY_POINTS = {
    "enveloping.column": (enveloping.VermaModule, "column"),
    "enveloping.matrices": (enveloping.VermaModule, "matrices"),
    "enveloping.verify_module_axioms": (enveloping, "verify_module_axioms"),
    "cohomology.equations": (cohomology.GradedLayout, "equations"),
    "cohomology.defects": (cohomology.DerivationMap, "defects"),
    "cohomology.h1": (cohomology, "h1"),
    "cohomology.graded_spaces": (cohomology, "graded_spaces"),
    "cohomology.full_derivation_dims": (cohomology, "full_derivation_dims"),
    "cohomology.psi": (cohomology, "psi"),
    "linalg.column_components": (linalg.SparseMatrix, "column_components"),
    "linalg.rref": (linalg, "rref"),
    "linalg.kernel_basis": (linalg, "kernel_basis"),
    "linalg.rank": (linalg, "rank"),
    "algebra.check_axioms": (algebra.SuperAlgebra, "check_axioms"),
    "cli.main": (cli, "main"),
}

OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN]
        self._ids = {OP_SPAN: 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op_id = -1
        self.counts: Counter = Counter()
        self._seen_columns: set = set()
        self._seen_equations: set = set()
        self._module_ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._modules_seen = 0

    # -- recording -------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) inside a root span for one op."""
        self._op_id = op_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, after=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _module_id(self, module) -> int:
        # a serial number, not id(): a freed module's id() can be reused
        serial = self._module_ids.get(module)
        if serial is None:
            serial = self._module_ids[module] = self._modules_seen
            self._modules_seen += 1
        return serial

    # -- exact counts ----------------------------------------------------------

    def _after_rref(self, args, result):
        rows, cols = np.shape(args[0])
        self.counts["rref_rows"] += rows
        self.counts["rref_cells"] += rows * cols
        self.counts["pivots"] += len(result[1])

    def _after_column(self, args, result):
        module, g, n = args[:3]
        self._seen_columns.add((self._module_id(module), g, n))

    def _after_equations(self, args, result):
        layout = args[0]
        key = (self._module_id(layout.module), layout.parity)
        if key not in self._seen_equations:
            self._seen_equations.add(key)
            mat = result[0] if isinstance(result, tuple) else result
            self.counts["equation_rows"] += mat.shape[0]

    def _after_components(self, args, result):
        self.counts["components"] += len(result)

    def _after_h1(self, args, result):
        self.counts["representatives"] += len(result.representatives)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "linalg.rref": self._after_rref,
            "enveloping.column": self._after_column,
            "cohomology.equations": self._after_equations,
            "linalg.column_components": self._after_components,
            "cohomology.h1": self._after_h1,
        }
        modules = [
            m for key, m in sys.modules.items()
            if key == "d21alpha" or key.startswith("d21alpha.")
        ]
        for name, (owner, attr) in ENTRY_POINTS.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and total self time.

        Self time is a span's duration minus the durations of its direct
        children; column spans nest inside column spans, so this is what
        keeps recursive calls from being counted twice.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for name_id, name in enumerate(self.names):
            mask = a["name"] == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    @property
    def columns_built(self) -> int:
        return len(self._seen_columns)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round: times per op, counts per round."""
    s = tracer.summary()
    counts = tracer.counts

    def per_op(name: str, key: str) -> float:
        return s[name][key] / ops

    column_calls = s["enveloping.column"]["calls"]
    op_wall = s[OP_SPAN]["total_s"]
    named_self = sum(v["self_s"] for k, v in s.items() if k != OP_SPAN)
    return {
        "linalg.rref_s": (per_op("linalg.rref", "total_s"), "s/op"),
        "linalg.rref_calls": (s["linalg.rref"]["calls"], "count"),
        "linalg.rref_cells": (counts["rref_cells"], "count"),
        "linalg.pivots": (counts["pivots"], "count"),
        "linalg.pivot_row_ratio": (
            counts["pivots"] / counts["rref_rows"] if counts["rref_rows"] else 0.0,
            "ratio",
        ),
        "linalg.components_s": (per_op("linalg.column_components", "total_s"), "s/op"),
        "linalg.components": (counts["components"], "count"),
        "linalg.rank_self_s": (per_op("linalg.rank", "self_s"), "s/op"),
        "linalg.kernel_self_s": (per_op("linalg.kernel_basis", "self_s"), "s/op"),
        "enveloping.column_self_s": (per_op("enveloping.column", "self_s"), "s/op"),
        "enveloping.column_calls": (column_calls, "count"),
        "enveloping.columns_built": (tracer.columns_built, "count"),
        "enveloping.column_reuse_ratio": (
            1 - tracer.columns_built / column_calls if column_calls else 0.0,
            "ratio",
        ),
        "enveloping.matrices_self_s": (per_op("enveloping.matrices", "self_s"), "s/op"),
        "enveloping.module_axioms_self_s": (
            per_op("enveloping.verify_module_axioms", "self_s"), "s/op",
        ),
        "cohomology.equations_self_s": (
            per_op("cohomology.equations", "self_s"), "s/op",
        ),
        "cohomology.equation_rows": (counts["equation_rows"], "count"),
        "cohomology.graded_spaces_self_s": (
            per_op("cohomology.graded_spaces", "self_s"), "s/op",
        ),
        "cohomology.h1_self_s": (per_op("cohomology.h1", "self_s"), "s/op"),
        "cohomology.defects_s": (per_op("cohomology.defects", "total_s"), "s/op"),
        "cohomology.representatives": (counts["representatives"], "count"),
        "cohomology.psi_self_s": (per_op("cohomology.psi", "self_s"), "s/op"),
        "cohomology.oracle_self_s": (
            per_op("cohomology.full_derivation_dims", "self_s"), "s/op",
        ),
        "algebra.check_axioms_s": (per_op("algebra.check_axioms", "total_s"), "s/op"),
        "cli.main_self_s": (per_op("cli.main", "self_s"), "s/op"),
        "trace.op_wall_s": (op_wall / ops, "s/op"),
        "trace.span_coverage": (named_self / op_wall if op_wall else 0.0, "ratio"),
    }
