"""Per-layer tracing by rebinding the package's public functions at run time.

Nothing in the package is edited.  :func:`install` finds every module of
``cyclesplines`` that has bound a traced function under some name (the
defining module, the package namespace and every importing module) and
rebinds that name to a wrapper, so calls made from inside the library are
seen as well as calls made by the benchmark.  ``Spline`` construction is
traced through the class attribute ``__post_init__``, because replacing the
class itself would break ``isinstance`` checks.

A span wrapper records (name, start, end, parent, item) and keeps per-name
totals online: calls, self time (the span minus its direct child spans),
calls that raised and, for the checkers, calls that returned a rejection.
A count wrapper only counts calls; its time stays in the caller's self time.
"""

from __future__ import annotations

import array
import gzip
import sys
import time
from contextlib import contextmanager

# (module, attribute, kind); "span" records spans and self time, "count" only
# counts calls.  The names are the layers' public functions.
TARGETS = (
    ("numtheory", "solve_congruence_pair", "span"),
    ("numtheory", "mod_inverse", "span"),
    ("numtheory", "lcm", "count"),
    ("spline_core", "Spline", "span"),
    ("spline_core", "is_spline", "span"),
    ("bases", "triangulation_basis", "span"),
    ("bases", "triangulation_spline", "count"),
    ("bases", "king_basis", "span"),
    ("bases", "check_flow_up_basis", "span"),
    ("bases", "smallest_basis", "span"),
    ("ring_algebra", "decompose", "span"),
    ("ring_algebra", "reconstruct", "span"),
    ("ring_algebra", "product_in_basis", "span"),
    ("ring_algebra", "king_product", "span"),
    ("ring_algebra", "king_multiplication_table", "span"),
    ("oracle", "brute_force_smallest", "span"),
    ("oracle", "check_basis_by_definition", "span"),
    ("cli", "main", "span"),
)

ITEM = "item"
# king_basis calls made while king_product is on the stack: the waste that
# ROADMAP item 5 removes
NESTED = ("ring_algebra.king_product", "bases.king_basis")
# functions whose falsy result is a rejection verdict
VERDICTS = ("bases.check_flow_up_basis", "oracle.check_basis_by_definition")

CALLS, SELF_NS, FAILED, REJECTED = range(4)


class Tracer:
    """Span store and per-name totals for one traced run."""

    def __init__(self, span_cap: int = 1_000_000) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.totals: list[list[int]] = []
        self.nested_calls = 0
        self.span_cap = span_cap
        self.spans_dropped = 0
        self._stack: list[list[int]] = []  # [name id, row, child ns]
        self._name = array.array("i")
        self._start = array.array("q")
        self._end = array.array("q")
        self._parent = array.array("q")
        self._item = array.array("q")
        self._installed: list[tuple[object, str, object]] = []
        self.item_id = -1
        self._id(ITEM)

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.totals.append([0, 0, 0, 0])
        return self.ids[name]

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name: str, fn):
        nid = self._id(name)
        totals = self.totals[nid]
        stack = self._stack
        clock = time.perf_counter_ns
        names, starts, ends = self._name, self._start, self._end
        parents, items = self._parent, self._item
        watch = self.ids.get(NESTED[0]) if name == NESTED[1] else None
        verdict = name in VERDICTS
        tracer = self

        def traced(*args, **kwargs):
            if watch is not None and any(frame[0] == watch for frame in stack):
                tracer.nested_calls += 1
            row = -1
            if len(ends) < tracer.span_cap:
                row = len(ends)
                names.append(nid)
                parents.append(stack[-1][1] if stack else -1)
                items.append(tracer.item_id)
                ends.append(0)
                starts.append(0)
            else:
                tracer.spans_dropped += 1
            frame = [nid, row, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                totals[FAILED] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[CALLS] += 1
                totals[SELF_NS] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if row >= 0:
                    starts[row] = start
                    ends[row] = end
            if verdict and not result:
                totals[REJECTED] += 1
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        totals = self.totals[self._id(name)]

        def counted(*args, **kwargs):
            totals[CALLS] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------ install/remove

    def install(self) -> None:
        """Rebind every traced name in every loaded ``cyclesplines`` module."""
        modules = [
            m for key, m in sys.modules.items()
            if key == "cyclesplines" or key.startswith("cyclesplines.")
        ]
        # register king_product before king_basis so the nesting watch finds it
        self._id(NESTED[0])
        for module_name, attr, kind in TARGETS:
            name = f"{module_name}.{attr}"
            home = sys.modules.get(f"cyclesplines.{module_name}")
            if home is None:  # the CLI is imported only by the cli workload
                continue
            original = getattr(home, attr)
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            if isinstance(original, type):
                hook = original.__dict__["__post_init__"]
                self._installed.append((original, "__post_init__", hook))
                setattr(original, "__post_init__", make(name, hook))
                continue
            wrapper = make(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self) -> None:
        """Undo :meth:`install`, restoring every original binding."""
        while self._installed:
            owner, key, original = self._installed.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # --------------------------------------------------------------- items

    def run_item(self, item_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of one benchmark item."""
        self.item_id = item_id
        return self._span_wrapper(ITEM, fn)(*args)

    # -------------------------------------------------------------- output

    def total(self, name: str, stat: int) -> int:
        nid = self.ids.get(name)
        return 0 if nid is None else self.totals[nid][stat]

    def write_spans(self, path) -> int:
        """Write the kept spans as gzip-compressed CSV; returns the row count."""
        rows = len(self._end)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_ns,end_ns,parent,item\n")
            names = self.names
            for row in range(rows):
                fh.write(
                    f"{row},{names[self._name[row]]},{self._start[row]},"
                    f"{self._end[row]},{self._parent[row]},{self._item[row]}\n"
                )
        return rows
