"""Exhaustive desk-scale search over splines.

Everything here certifies the closed-form constructions by direct
enumeration: walk the vertices in order and extend a partial labeling
through the residue classes its edges allow, never consulting the formulas
under test.  Intended for small instances only (roughly n <= 6 and labels
<= 12); every search carries an :class:`EnumerationBudget` and aborts with
:class:`BudgetExceededError` rather than running away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .errors import BudgetExceededError, InvariantViolationError
from .numtheory import lcm
from .spline_core import (
    EdgeLabeledCycle,
    EdgeLabeledGraph,
    GraphLike,
    Spline,
    SplineLike,
    _check_flow_up_family,
    is_spline,
    leading_zeros,
    spline_entries,
)

DEFAULT_MAX_STATES = 5_000_000


@dataclass(frozen=True)
class EnumerationBudget:
    """Bounds for an exhaustive search.

    ``entry_bound`` caps every entry of an enumerated labeling (the box is
    [0, entry_bound] per vertex) and ``max_states`` caps how many candidate
    values the search may consider before giving up.
    """

    entry_bound: int
    max_states: int = DEFAULT_MAX_STATES

    def __post_init__(self) -> None:
        if self.entry_bound < 1:
            raise ValueError(f"entry bound must be positive, got {self.entry_bound}")
        if self.max_states < 1:
            raise ValueError(f"state limit must be positive, got {self.max_states}")


def default_budget(graph: GraphLike, max_states: int = DEFAULT_MAX_STATES) -> EnumerationBudget:
    """Budget whose entry bound is the product of all edge labels.

    Adding that product to any single entry preserves every congruence, so
    each residue pattern of a spline has a representative inside the box.
    """
    return EnumerationBudget(max(graph.label_product(), 1), max_states)


def smallest_class_bound(cycle: EdgeLabeledCycle) -> int:
    """A tight entry bound that still contains the smallest flow-up class.

    A partial labeling ending in value g at position i extends to a full
    flow-up spline exactly when suffix_gcd(i) divides g, so minimizing the
    entries left to right just chains least positive solutions of the pair
    systems {x = previous (mod label(i - 1)), x = 0 (mod suffix_gcd(i))}.
    Each such solution is at most lcm(label(i - 1), suffix_gcd(i)), so the
    whole class lies in the box [0, B] with B the maximum of those least
    common multiples.  Far smaller than the label product, which makes
    exhaustive certification feasible on five-vertex cycles.
    """
    return max(lcm(cycle.label(i - 1), cycle.suffix_gcd(i)) for i in range(2, cycle.n + 1))


class _StateCounter:
    """Counts candidate values considered; raises once the budget is spent."""

    __slots__ = ("left", "limit")

    def __init__(self, limit: int) -> None:
        self.left = limit
        self.limit = limit

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError(
                f"enumeration exceeded its budget of {self.limit} states"
            )


def _iter_cycle_flow_up(
    cycle: EdgeLabeledCycle, k: int, budget: EnumerationBudget
) -> Iterator[tuple[int, ...]]:
    """Yield entry tuples of splines with >= k leading zeros, entries in the box.

    Positions are filled left to right; the value at position i + 1 ranges
    over the residue class of the value at position i modulo label(i), and
    the last position is additionally filtered by the wrap-around edge.
    """
    n = cycle.n
    if not 1 <= k <= n - 1:
        raise IndexError(f"k must be in [1, {n - 1}], got {k}")
    labels = cycle.labels
    bound = budget.entry_bound
    counter = _StateCounter(budget.max_states)
    wrap = labels[n - 1]
    acc = [0] * n

    def extend(pos: int) -> Iterator[tuple[int, ...]]:
        prev = acc[pos - 2]
        step = labels[pos - 2]
        last = pos == n
        for val in range(prev % step, bound + 1, step):
            counter.spend()
            if last:
                if val % wrap == 0:
                    acc[pos - 1] = val
                    yield tuple(acc)
            else:
                acc[pos - 1] = val
                yield from extend(pos + 1)
        acc[pos - 1] = 0

    return extend(k + 1)


def enumerate_flow_up_splines(
    cycle: EdgeLabeledCycle, k: int, budget: Optional[EnumerationBudget] = None
) -> list[Spline]:
    """All splines on the cycle with at least k leading zeros and entries in
    [0, budget.entry_bound], zero spline included."""
    if budget is None:
        budget = default_budget(cycle)
    return [Spline(t) for t in _iter_cycle_flow_up(cycle, k, budget)]


def brute_force_smallest(
    cycle: EdgeLabeledCycle, k: int, budget: Optional[EnumerationBudget] = None
) -> Spline:
    """Smallest enumerated spline with exactly k leading zeros and positive
    remaining entries, comparing entry tuples left to right.

    Minimizing the leftmost entries first is the order under which a minimum
    exists: positive flow-up splines need not be comparable entry by entry.
    The default budget uses :func:`smallest_class_bound`, which provably
    contains the minimizer.  The result is one of the enumerated labelings,
    so attainment is automatic; it is still re-checked against the edge
    congruences, and a failure there would be a bug in the enumerator.
    """
    if budget is None:
        budget = EnumerationBudget(smallest_class_bound(cycle))
    best: Optional[tuple[int, ...]] = None
    for t in _iter_cycle_flow_up(cycle, k, budget):
        if 0 in t[k:]:
            continue
        if best is None or t < best:
            best = t
    if best is None:
        raise BudgetExceededError(
            f"no flow-up spline with exactly {k} leading zeros and positive "
            f"entries within entry bound {budget.entry_bound}"
        )
    result = Spline(best)
    if not is_spline(cycle, result):
        raise InvariantViolationError(
            "enumerated labeling violates an edge congruence"
        )
    return result


def triangulated_graph(cycle: EdgeLabeledCycle) -> EdgeLabeledGraph:
    """The cycle plus chords from vertex 1 to each vertex i in [3, n - 1],
    the chord to vertex i labeled gcd of the labels of edges i..n."""
    edges = [(u, v, lab) for _, u, v, lab in cycle.edges()]
    for i in range(3, cycle.n):
        edges.append((1, i, cycle.suffix_gcd(i)))
    return EdgeLabeledGraph(cycle.n, tuple(edges))


def verify_triangulated_extension(cycle: EdgeLabeledCycle, k: int, h: SplineLike) -> bool:
    """True when ``h`` satisfies every congruence of the chord-augmented graph.

    ``h`` must have exactly k leading zeros; that is a precondition on the
    caller, not part of the verdict.
    """
    entries = spline_entries(h)
    found = leading_zeros(entries)
    if found != k:
        raise ValueError(f"expected exactly {k} leading zeros, found {found}")
    return bool(is_spline(triangulated_graph(cycle), entries))


def _lower_constraints(graph: EdgeLabeledGraph) -> list[list[tuple[int, int]]]:
    # slot t holds the (lower endpoint, label) pairs of edges whose higher
    # endpoint is t; each edge is checked when its higher vertex is assigned
    lower: list[list[tuple[int, int]]] = [[] for _ in range(graph.vertex_count + 1)]
    for u, v, lab in graph.edges:
        a, b = (u, v) if u < v else (v, u)
        lower[b].append((a, lab))
    return lower


def _iter_graph_splines(
    graph: EdgeLabeledGraph, min_leading_zeros: int, budget: EnumerationBudget
) -> Iterator[tuple[int, ...]]:
    """Yield entry tuples of splines on a general graph with the first
    ``min_leading_zeros`` vertices pinned to zero and entries in the box."""
    n = graph.vertex_count
    if not 0 <= min_leading_zeros <= n:
        raise IndexError(f"leading zero count must be in [0, {n}], got {min_leading_zeros}")
    bound = budget.entry_bound
    counter = _StateCounter(budget.max_states)
    lower = _lower_constraints(graph)
    acc = [0] * n

    def extend(pos: int) -> Iterator[tuple[int, ...]]:
        if pos > n:
            yield tuple(acc)
            return
        cons = lower[pos]
        if cons:
            # walk the sparsest residue class and filter by the rest
            u0, lab0 = max(cons, key=lambda c: c[1])
            candidates = range(acc[u0 - 1] % lab0, bound + 1, lab0)
        else:
            candidates = range(0, bound + 1)
        for val in candidates:
            counter.spend()
            if all((val - acc[u - 1]) % lab == 0 for u, lab in cons):
                acc[pos - 1] = val
                yield from extend(pos + 1)
        acc[pos - 1] = 0

    return extend(min_leading_zeros + 1)


def check_basis_by_definition(
    graph: Union[GraphLike],
    candidates: Sequence[SplineLike],
    budget: Optional[EnumerationBudget] = None,
) -> bool:
    """Decide basis-hood straight from the defining divisibility condition.

    For each index i, every enumerated spline whose first i entries vanish
    must have its entry at position i + 1 divisible by candidate i's leading
    entry.  The scan for index i is skipped when that leading entry is a
    unit, and the whole check short-circuits on the first witness against.

    Exhaustive at desk scale only.  For a cycle the default budget is the
    bound of :func:`smallest_class_bound`, which always contains a witness
    when one exists because candidates are required to be splines (their
    leading entries are then multiples of the minimal ones, and the minimal
    class itself refutes any strict multiple).  For a general graph the
    default is the label-product bound.
    """
    if isinstance(graph, EdgeLabeledCycle):
        if budget is None:
            budget = EnumerationBudget(smallest_class_bound(graph))
        work_graph = graph.as_graph()
    else:
        if budget is None:
            budget = default_budget(graph)
        work_graph = graph
    cands = _check_flow_up_family(candidates, work_graph.vertex_count, "candidate", graph)
    for i, cand in enumerate(cands):
        lead = cand.entries[i]
        if abs(lead) == 1:
            continue
        for t in _iter_graph_splines(work_graph, i, budget):
            if t[i] % lead != 0:
                return False
    return True
