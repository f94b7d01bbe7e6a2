"""Spans and call counters for the traced benchmark run.

The workloads call spweil's public functions and nothing else.  The timed
run leaves them as they are.  The traced run wraps them, while a traced
request works (Tracer.instrumented()): each function of SPANNED gets a span
named after its layer, and each method of COUNTED adds to a call counter.
So the program is not changed, the timed path carries no tracing code, and
a change inside one of these functions moves both runs.

A Tracer keeps every span in memory as [name, start, end, parent, request]
and writes them out only at the end.  Spans are not opened inside a span
of an OPAQUE layer: the relation suite, the closure and a restriction are
measured whole, and the operator calls inside them are seen only as counts.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

from spweil import generators, heisenberg, serialize, submodules, symplectic, verification
from spweil.fields import CyclotomicContext, ExtensionFieldContext, PrimeFieldContext
from spweil.linalg import DenseMatrix
from spweil.operators import FourierOp, MonomialOp, ProductOp

FAMILY = {"cyclotomic": "cyclotomic", "prime": "prime", "extension": "char2"}
OPAQUE = ("verification.", "submodules.")


def _suite_span(params, *args, **kwargs):
    return "verification.suite." + FAMILY[params.ctx.kind]


def _closure_span(mats, cap):
    return "verification.closure." + ("prime" if mats[0].ctx.kind == "prime" else "generic")


def _count_word(counts, args, result):
    counts["symplectic.word_tokens"] += len(args[0])
    counts["operators.factors"] += len(result.factors) if isinstance(result, ProductOp) else 1


def _count_text(counts, args, result):
    counts["serialize.bytes"] += len(result)   # ASCII, so len is the byte count


def _count_emitted(counts, args, result):
    counts["serialize.bytes"] += args[2].tell()   # the StringIO the text went to


# (owner, attribute, span name or a function of the call's arguments that
# gives it, and a function that adds to the counts after the call, or None)
SPANNED = [
    (generators, "weil_generators", "generators.weil_generators", None),
    (symplectic, "decompose", "symplectic.decompose", None),
    (symplectic, "evaluate_word", "symplectic.evaluate_word", _count_word),
    (MonomialOp, "materialize", "operators.materialize.monomial", None),
    (FourierOp, "materialize", "operators.materialize.fourier", None),
    (ProductOp, "materialize", "operators.materialize.product", None),
    (ProductOp, "apply", "operators.apply", None),
    (heisenberg, "pi_map", "heisenberg.pi_map", None),
    (submodules, "restrict", "submodules.restrict", None),
    (submodules, "restrict_quotient", "submodules.restrict", None),
    (serialize, "generator_matrices", "serialize.generator_matrices", None),
    (serialize, "build_document", "serialize.build_document", None),
    (serialize, "dumps_document", "serialize.dumps", _count_text),
    (serialize, "emit_magma", "serialize.emit_text", _count_emitted),
    (serialize, "emit_gap", "serialize.emit_text", _count_emitted),
    (verification, "run_relation_suite", _suite_span, None),
    (verification, "closure_order", _closure_span, None),
]

# (class, method, counter name)
COUNTED = [
    (cls, method, f"fields.{method}_calls")
    for cls in (CyclotomicContext, PrimeFieldContext, ExtensionFieldContext)
    for method in ("add", "mul", "inv")
] + [(DenseMatrix, "inverse", "linalg.inverse_calls")]


class NullTracer:
    """Tracing off: no spans, no counts, nothing wrapped."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def set_request(self, request_id):
        pass

    def instrumented(self):
        return self._null


NULL_TRACER = NullTracer()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request id]
        self.counts = Counter()
        self._stack = []
        self._request = None
        self._opaque = 0   # depth of open spans of OPAQUE layers

    def set_request(self, request_id):
        self._request = request_id

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1, self._request]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def instrumented(self):
        """Wrap SPANNED and COUNTED while active."""
        originals = []
        try:
            for owner, attr, name, count in SPANNED:
                originals.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, self._spanned(getattr(owner, attr), name, count))
            for cls, method, key in COUNTED:
                originals.append((cls, method, cls.__dict__[method]))
                setattr(cls, method, _counted(getattr(cls, method), self.counts, key))
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                if fn is None:    # inherited, as FourierOp.materialize is
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, fn)

    def _spanned(self, fn, name, count):
        def wrapper(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            span = name if isinstance(name, str) else name(*args, **kwargs)
            opaque = span.startswith(OPAQUE)
            self._opaque += opaque
            try:
                with self.span(span):
                    result = fn(*args, **kwargs)
            finally:
                self._opaque -= opaque
            if count:
                count(self.counts, args, result)
            return result
        return wrapper

    def self_times(self, first=0):
        """Sum of self time (duration minus the time covered by child spans)
        per span name, over spans[first:]."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= 0:
                child_time[parent] += end - start
        out = Counter()
        for i in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[i]
            out[name] += end - start - child_time[i]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def _counted(fn, counts, key):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper
