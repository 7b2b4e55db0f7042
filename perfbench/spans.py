"""In-memory span recorder for the traced benchmark run.

A span is one call into a wrapped public function of the package: its
name, start and end (perf_counter_ns), the span that was open when it
started, the op it belongs to, an outcome (ok, censored, failed) and one
count (lifted edges, kernel dimension, or 1 per lift yielded).  Spans live
in flat arrays while the run lasts and are written out once, at the end.

Wrappers are installed on every module of the package that binds the
wrapped name, so calls made inside the package are caught too (for
example ``experiments`` binds ``expand`` and ``coloring`` binds it again).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

OK, CENSORED, FAILED = 0, 1, 2
OP_SPAN = "bench.op"  # the top-level span of each op
COLUMNS = ("parent", "op", "name", "start", "end", "outcome", "count")


class Tracer:
    def __init__(self, censored_exc: type[BaseException]):
        self._censored_exc = censored_exc
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {c: array("b" if c == "outcome" else "q") for c in COLUMNS}
        self._stack = [-1]
        self.op_id = -1  # -1 while setting up
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        cols = self.cols
        idx = len(cols["start"])
        cols["parent"].append(self._stack[-1])
        cols["op"].append(self.op_id)
        cols["name"].append(nid)
        cols["end"].append(0)
        cols["outcome"].append(OK)
        cols["count"].append(0)
        self._stack.append(idx)
        cols["start"].append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, outcome: int, count: int = 0) -> None:
        self.cols["end"][idx] = time.perf_counter_ns()
        self._stack.pop()
        self.cols["outcome"][idx] = outcome
        self.cols["count"][idx] = count

    def _outcome(self, exc: BaseException) -> int:
        return CENSORED if isinstance(exc, self._censored_exc) else FAILED

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so that each call records one span.

        ``count(args, result)`` gives the span's count when the call returns.
        """
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, self._outcome(exc))
                raise
            self._close(idx, OK, count(args, result) if count else 0)
            return result

        return wrapper

    def span_iter(self, name: str, fn):
        """Wrap a generator function: each resumption is one span, count 1
        per item yielded, so the consumer's work between items stays its own."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    self._close(idx, OK)
                    return
                except BaseException as exc:
                    self._close(idx, self._outcome(exc))
                    raise
                self._close(idx, OK, 1)
                yield item

        return wrapper

    def install(self, package: str, module, attr: str, wrapper) -> None:
        """Bind ``wrapper`` wherever the package binds ``module.attr``."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._installed.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()

    def op(self, op_id: int, fn):
        """Run ``fn`` as op ``op_id`` inside one top-level span."""
        self.op_id = op_id
        try:
            return self.span(OP_SPAN, fn)()
        finally:
            self.op_id = -1


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds one span adds to a call, from a wrapped and a bare no-op."""

    def noop():
        return None

    best = float("inf")
    for _ in range(3):
        wrapped = Tracer(BaseException).span("calibrate", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)
