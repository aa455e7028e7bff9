"""Per-layer tracing of the qbrauer modules, installed from outside the library.

``Tracer`` replaces public functions and methods of the library modules with
wrappers and puts every original back on exit and while ``paused()``.
Coarse calls get spans (name, start, end, parent) kept in memory; hot small
calls get counters only.  Times are process CPU time, as in the rest of the
benchmark.  A span's self time is its duration minus the durations of its
child spans; coefficient arithmetic has no spans, so it stays inside the
self time of the span that called it.

The RatFunc and Fp operators (+ - * / and their reflected forms) are counted
once per outermost call: a subtraction that the class implements as an
addition counts as one operation.  RatFunc operators are also timed.
"""

from __future__ import annotations

import contextlib
import time
import weakref
from collections import Counter

from qbrauer import brauerdiag, cellular, coefficients, hecke, symgrp
from qbrauer import qbrauer as qb

# (owner, attribute, span name)
SPANS = (
    (qb.QBrAlgebra, "__init__", "qbrauer.construct"),
    (qb.QBrAlgebra, "mul", "qbrauer.mul"),
    (qb.QBrAlgebra, "star", "qbrauer.star"),
    (hecke.HeckeWindow, "murphy_data", "hecke.murphy_data"),
    (hecke.HeckeWindow, "to_murphy", "hecke.to_murphy"),
    (cellular.Cellular, "gram", "cellular.gram"),
    (cellular, "det", "cellular.det"),
    (cellular, "rank", "cellular.rank"),
    (cellular, "closed_form_criterion", "cellular.closed_form"),
    (symgrp, "enumerate_Bkn", "symgrp.enumerate_Bkn"),
    (brauerdiag, "diagram_length", "brauerdiag.diagram_length"),
)

# (owner, attribute, counter name)
COUNTERS = (
    (symgrp, "reduced_word", "symgrp.reduced_word_calls"),
    (brauerdiag, "compose", "brauerdiag.compose_calls"),
    (hecke.HeckeWindow, "rmul_gen", "hecke.rmul_gen_calls"),
)

OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)

MEMOS = ("_red_memo", "_emul_memo", "_lefte_memo", "_norm_memo")

# per-layer metric -> unit, in report order
LAYER_METRICS = {
    "coefficients.ratfunc_ops": "count",
    "coefficients.ratfunc_s": "s",
    "coefficients.fp_ops": "count",
    "symgrp.enumerate_Bkn_s": "s",
    "symgrp.reduced_word_calls": "count",
    "brauerdiag.diagram_length_s": "s",
    "brauerdiag.compose_calls": "count",
    "hecke.murphy_data_calls": "count",
    "hecke.murphy_data_s": "s",
    "hecke.to_murphy_calls": "count",
    "hecke.to_murphy_self_s": "s",
    "hecke.rmul_gen_calls": "count",
    "qbrauer.construct_calls": "count",
    "qbrauer.construct_s": "s",
    "qbrauer.mul_calls": "count",
    "qbrauer.mul_self_s": "s",
    "qbrauer.star_calls": "count",
    "qbrauer.star_s": "s",
    "qbrauer.rewrite_steps": "count",
    "qbrauer.memo_entries": "count",
    "qbrauer.inconsistency_errors": "count",
    "cellular.gram_calls": "count",
    "cellular.gram_self_s": "s",
    "cellular.det_calls": "count",
    "cellular.det_s": "s",
    "cellular.rank_s": "s",
    "cellular.closed_form_s": "s",
}


class Tracer:
    """Context manager that traces the library while it is active."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.ratfunc_s = 0.0
        self.rewrite_steps = 0
        self.inconsistency_errors = 0
        self._stack = []
        self._patches = []
        self._serial = weakref.WeakKeyDictionary()
        self._memo_size = {}  # algebra serial -> memo entries at its last call

    # -- install and remove ------------------------------------------------------

    def __enter__(self):
        self._install()
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    @contextlib.contextmanager
    def paused(self):
        """Run the body untraced, as the benchmark's own output checks are."""
        self._restore()
        try:
            yield
        finally:
            self._install()

    def _install(self):
        try:
            for owner, attr, name in SPANS:
                fn = self._span_wrapper(name, owner, attr, getattr(owner, attr))
                self._patch(owner, attr, fn)
            for owner, attr, name in COUNTERS:
                self._patch(owner, attr, self._count_wrapper(name, getattr(owner, attr)))
            for cls, name, timed in (
                (coefficients.RatFunc, "coefficients.ratfunc_ops", True),
                (coefficients.Fp, "coefficients.fp_ops", False),
            ):
                depth = [0]
                for attr in OPERATORS:
                    fn = self._op_wrapper(name, getattr(cls, attr), depth, timed)
                    self._patch(cls, attr, fn)
        except BaseException:
            self._restore()
            raise

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, name, owner, attr, fn):
        spans, stack = self.spans, self._stack
        clock = time.process_time
        after = None
        if owner is qb.QBrAlgebra:
            after = self._after_construct if attr == "__init__" else self._after_algebra_call

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            exc = None
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                stack.pop()
                span[2] = clock()
                if after is not None:
                    after(attr, args[0], exc)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _op_wrapper(self, name, fn, depth, timed):
        counts = self.counts
        clock = time.process_time

        def wrapper(a, b):
            if depth[0]:
                return fn(a, b)
            depth[0] = 1
            t = clock() if timed else 0.0
            try:
                return fn(a, b)
            finally:
                depth[0] = 0
                counts[name] += 1
                if timed:
                    self.ratfunc_s += clock() - t

        return wrapper

    def _after_construct(self, attr, alg, exc):
        if exc is None:
            serial = len(self._memo_size)
            self._serial[alg] = serial
            self._memo_size[serial] = 0

    def _after_algebra_call(self, attr, alg, exc):
        if attr == "mul":
            self.rewrite_steps += alg._steps
        serial = self._serial.get(alg)
        if serial is not None:
            self._memo_size[serial] = sum(len(getattr(alg, m)) for m in MEMOS)
        if isinstance(exc, qb.InternalInconsistency):
            self.inconsistency_errors += 1

    # -- results -----------------------------------------------------------------

    def layer_metrics(self):
        """The per-layer metrics of everything traced so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        c = self.counts
        values = {
            "coefficients.ratfunc_ops": c["coefficients.ratfunc_ops"],
            "coefficients.ratfunc_s": self.ratfunc_s,
            "coefficients.fp_ops": c["coefficients.fp_ops"],
            "symgrp.enumerate_Bkn_s": total["symgrp.enumerate_Bkn"],
            "symgrp.reduced_word_calls": c["symgrp.reduced_word_calls"],
            "brauerdiag.diagram_length_s": total["brauerdiag.diagram_length"],
            "brauerdiag.compose_calls": c["brauerdiag.compose_calls"],
            "hecke.murphy_data_calls": calls["hecke.murphy_data"],
            "hecke.murphy_data_s": total["hecke.murphy_data"],
            "hecke.to_murphy_calls": calls["hecke.to_murphy"],
            "hecke.to_murphy_self_s": own["hecke.to_murphy"],
            "hecke.rmul_gen_calls": c["hecke.rmul_gen_calls"],
            "qbrauer.construct_calls": calls["qbrauer.construct"],
            "qbrauer.construct_s": total["qbrauer.construct"],
            "qbrauer.mul_calls": calls["qbrauer.mul"],
            "qbrauer.mul_self_s": own["qbrauer.mul"],
            "qbrauer.star_calls": calls["qbrauer.star"],
            "qbrauer.star_s": total["qbrauer.star"],
            "qbrauer.rewrite_steps": self.rewrite_steps,
            "qbrauer.memo_entries": sum(self._memo_size.values()),
            "qbrauer.inconsistency_errors": self.inconsistency_errors,
            "cellular.gram_calls": calls["cellular.gram"],
            "cellular.gram_self_s": own["cellular.gram"],
            "cellular.det_calls": calls["cellular.det"],
            "cellular.det_s": total["cellular.det"],
            "cellular.rank_s": total["cellular.rank"],
            "cellular.closed_form_s": total["cellular.closed_form"],
        }
        return {k: (values[k], unit) for k, unit in LAYER_METRICS.items()}
