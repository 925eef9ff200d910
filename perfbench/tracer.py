"""Stdlib-only span recorder that times sublln's layers from outside.

The recorder replaces public functions at the module attributes where their
callers bound them (``from .engine import iid_sum_expectation`` binds a name in
the importing module, so each binding site is patched on its own).  Nested
calls therefore nest: a ``build_support`` span opened inside an
``iid_sum_expectation`` span is its child.  Spans stay in memory while the
workload runs and are written as JSON lines afterwards.

Each span records its layer name, the wrapped function, start and end
(``perf_counter`` seconds), its parent span, the benchmark op it belongs to,
and the call arguments, from which the workload computes work counts after
the run.  A layer's self time is its duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
from pathlib import Path
from time import perf_counter

# Span record fields (a list per span keeps the wrapper cheap).
ID, PARENT, OP, LAYER, FN, START, END, CHILD_S, RULES, ARGS, CTX = range(11)


class Tracer:
    """Records spans for one traced phase of one workload process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op_id: int | None = None
        self.context = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, layer: str, fn: str, args=None) -> list:
        parent = self.stack[-1][ID] if self.stack else None
        span = [len(self.spans), parent, self.op_id, layer, fn, perf_counter(), 0.0, 0.0, 0, args, self.context]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self) -> None:
        span = self.stack.pop()
        span[END] = perf_counter()
        if self.stack:
            self.stack[-1][CHILD_S] += span[END] - span[START]

    def run_op(self, op_id: int, thunk):
        """Run one benchmark op under a root span named ``op``."""
        self.op_id = op_id
        self.open("op", "op")
        try:
            return thunk()
        finally:
            self.close()
            self.op_id = None

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, layer: str):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(layer, fn.__name__, (signature, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapper

    def _context_wrapper(self, fn):
        """Mark calls made inside ``fn`` with its first non-family argument.

        ``lower_iid_sum_expectation`` calls ``iid_sum_expectation`` with a fresh
        ``-phi`` lambda; the mark lets the backward pass be attributed to the
        original phi with a negative sign.
        """

        @functools.wraps(fn)
        def wrapper(family, n, phi, *args, **kwargs):
            outer, self.context = self.context, phi
            try:
                return fn(family, n, phi, *args, **kwargs)
            finally:
                self.context = outer

        return wrapper

    def _counting_method(self, method):
        """Count method calls against the innermost open span, without a span."""

        @functools.wraps(method)
        def wrapper(obj, *args, **kwargs):
            if self.stack:
                self.stack[-1][RULES] += 1
            return method(obj, *args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, spans, contexts=(), counted_methods=()) -> None:
        """Patch ``(module, attr, layer)`` spans, ``(module, attr)`` contexts and
        ``(class, method)`` counters; one wrapper per original function."""
        wrappers: dict[int, object] = {}
        for module, attr, layer in spans:
            fn = getattr(module, attr)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._span_wrapper(fn, layer)
            self._patch(module, attr, wrappers[id(fn)])
        for module, attr in contexts:
            self._patch(module, attr, self._context_wrapper(getattr(module, attr)))
        for cls, name in counted_methods:
            self._patch(cls, name, self._counting_method(getattr(cls, name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    @staticmethod
    def arguments(span) -> dict:
        """The span's call arguments by parameter name, defaults applied."""
        signature, args, kwargs = span[ARGS]
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    @staticmethod
    def self_time(span) -> float:
        return span[END] - span[START] - span[CHILD_S]

    def write_jsonl(self, path: Path) -> None:
        with Path(path).open("w") as fh:
            for s in self.spans:
                record = {
                    "span": s[ID],
                    "parent": s[PARENT],
                    "op": s[OP],
                    "name": s[LAYER],
                    "fn": s[FN],
                    "start": s[START],
                    "end": s[END],
                    "self_s": self.self_time(s),
                    "rule_calls": s[RULES],
                }
                fh.write(json.dumps(record) + "\n")
