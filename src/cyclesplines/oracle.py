"""Exhaustive desk-scale search over splines.

Everything here certifies the closed-form constructions by direct
enumeration, never consulting the formulas under test.  One enumerator
serves cycles and general graphs: it fills the vertices in order, each
walking the residue class of its largest-label edge to an earlier vertex,
filtered by its other such edges.  It is one flat loop over those walks,
so any number of vertices fits the stack, and it yields in ascending
lexicographic order, so the smallest spline is its first hit.  For small
instances only (roughly n <= 6, labels <= 12).  The two searching questions,
:func:`brute_force_smallest` and :func:`check_basis_by_definition`, search
the box of :func:`search_bound`, which the labels alone fix and which
provably holds their answer; their one setting is a state limit
(``--max-states``) that counts the candidate values considered and aborts
with :class:`BudgetExceededError` rather than running away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceededError, InvariantViolationError, _dataclass_repr, _int_text
from .numtheory import lcm
from .spline_core import (
    EdgeLabeledCycle,
    EdgeLabeledGraph,
    GraphLike,
    Spline,
    SplineLike,
    _check_flow_up_family,
    _trusted_spline,
    is_spline,
    labeled_edges,
    leading_zeros,
    vertex_count,
)

DEFAULT_MAX_STATES = 5_000_000


@dataclass(frozen=True)
class EnumerationBudget:
    """Bounds for a listing whose box is the question itself, as in
    :func:`enumerate_flow_up_splines`.

    ``entry_bound`` caps every entry of an enumerated labeling (the box is
    [0, entry_bound] per vertex) and ``max_states`` caps how many candidate
    values the search may consider, each residue class it walks being
    charged in full as the walk starts.
    """

    entry_bound: int
    max_states: int = DEFAULT_MAX_STATES
    __repr__ = _dataclass_repr

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
    return EnumerationBudget(graph.label_product(), max_states)


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


def search_bound(graph: GraphLike) -> int:
    """The entry bound of a search given none: :func:`smallest_class_bound`
    for a cycle, and the lcm D of the labels for a general graph.

    Every label divides D, so D times the indicator of one vertex is a
    spline.  The entries at vertex i + 1 of the splines with i leading zeros
    are the multiples of some m_i > 0, and D is one of them, so m_i divides
    D.  Adding multiples of those indicator splines to a spline that has i
    leading zeros and m_i at vertex i + 1 reduces its later entries mod D
    and keeps it a spline, which then lies in [0, D].  That is the witness
    :func:`check_basis_by_definition` needs against every leading entry
    other than plus or minus m_i.
    """
    if isinstance(graph, EdgeLabeledCycle):
        return smallest_class_bound(graph)
    return math.lcm(*(lab for _, _, lab in graph.edges))


def enumerate_flow_up_splines(
    cycle: EdgeLabeledCycle, k: int, budget: Optional[EnumerationBudget] = None
) -> list[Spline]:
    """All splines on the cycle with at least k leading zeros and entries in
    [0, budget.entry_bound], zero spline included."""
    if not 1 <= k <= cycle.n - 1:
        raise IndexError(f"k must be in [1, {cycle.n - 1}], got {k}")
    if budget is None:
        budget = default_budget(cycle)
    return [_trusted_spline(t) for t in _iter_graph_splines(cycle, k, budget)]


def brute_force_smallest(
    cycle: EdgeLabeledCycle, k: int, max_states: int = DEFAULT_MAX_STATES
) -> Spline:
    """Smallest enumerated spline with exactly k leading zeros and positive
    remaining entries, comparing entry tuples left to right.

    Minimizing the leftmost entries first is the order under which a minimum
    exists: positive flow-up splines need not be comparable entry by entry.
    The search box is :func:`search_bound`'s, which provably contains the
    minimizer, and at most ``max_states`` candidate values are considered.
    The result is one of the enumerated labelings, so attainment is
    automatic; that a hit exists and is a spline is still re-checked, and a
    failure there would be a bug in the enumerator.
    """
    if not 1 <= k <= cycle.n - 1:
        raise IndexError(f"k must be in [1, {cycle.n - 1}], got {k}")
    budget = EnumerationBudget(search_bound(cycle), max_states)
    # the search ascends lexicographically, so its first hit is the minimum
    best = next((t for t in _iter_graph_splines(cycle, k, budget) if 0 not in t[k:]), None)
    if best is None or not is_spline(cycle, best):
        raise InvariantViolationError(
            f"the search box of entry bound {budget.entry_bound} holds no flow-up "
            f"spline with exactly {k} leading zeros and positive entries"
        )
    return _trusted_spline(best)


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
    found = leading_zeros(h)
    if found != k:
        raise ValueError(f"expected exactly {k} leading zeros, found {found}")
    return bool(is_spline(triangulated_graph(cycle), h))


def _lower_constraints(graph: GraphLike) -> list[tuple[int, int, list[tuple[int, int]]]]:
    # slot t plans vertex t from its edges to earlier vertices, written
    # (lower endpoint - 1, label): it walks the residue class of the one with
    # the largest label (the first listed among equals, the sort being
    # stable) and is filtered by the rest.  A label-1 edge, which every value
    # satisfies, stands in for none.
    lower: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count(graph) + 1)]
    for _, u, v, lab in sorted(labeled_edges(graph), key=itemgetter(3), reverse=True):
        lower[max(u, v)].append((min(u, v) - 1, lab))
    return [(*cons[0], cons[1:]) if cons else (0, 1, []) for cons in lower]


def _iter_graph_splines(
    graph: GraphLike, min_leading_zeros: int, budget: EnumerationBudget
) -> Iterator[tuple[int, ...]]:
    """Yield entry tuples of splines on a cycle or general graph with the
    first ``min_leading_zeros`` vertices pinned to zero and entries in the
    box, in ascending lexicographic order; planned once per search."""
    n = vertex_count(graph)
    if not 0 <= min_leading_zeros <= n:
        raise IndexError(f"leading zero count must be in [0, {n}], got {min_leading_zeros}")
    bound, limit, spent = budget.entry_bound, budget.max_states, 0
    plan = _lower_constraints(graph)
    acc = [0] * n
    # each vertex's open walk, an iterator holding its next value; None if closed
    walks: list[Optional[Iterator[int]]] = [None] * (n + 1)
    pos = min_leading_zeros + 1
    if pos > n:
        yield tuple(acc)
    while n >= pos > min_leading_zeros:
        i0, lab0, rest = plan[pos]
        walk = walks[pos]
        if walk is None:
            start = acc[i0] % lab0
            # charged in full as the walk opens, arithmetically: len() of a
            # range past 2**63 - 1 values overflows
            spent += (bound - start) // lab0 + 1
            if spent > limit:
                raise BudgetExceededError(
                    f"enumeration exceeded its budget of {_int_text(limit)} states: "
                    f"{_int_text(spent)} charged, entry bound {_int_text(bound)}",
                    spent=spent,
                    limit=limit,
                    entry_bound=bound,
                )
            walk = walks[pos] = iter(range(start, bound + 1, lab0))
        for val in walk:
            for i, lab in rest:
                if (val - acc[i]) % lab:
                    break
            else:
                # val meets every lower edge: yield at the last vertex, else go deeper
                acc[pos - 1] = val
                if pos < n:
                    break
                yield tuple(acc)
        else:
            # spent: close the walk and step back; acc[pos - 1] is rewritten before use
            walks[pos] = None
            pos -= 1
            continue
        pos += 1


def check_basis_by_definition(
    graph: GraphLike, candidates: Sequence[SplineLike], max_states: int = DEFAULT_MAX_STATES
) -> bool:
    """Decide basis-hood straight from the defining divisibility condition.

    For each index i, every enumerated spline whose first i entries vanish
    must have its entry at position i + 1 divisible by candidate i's leading
    entry.  The scan for index i is skipped when that leading entry is a
    unit, and the whole check short-circuits on the first witness against.

    Exhaustive at desk scale only.  The box is that of :func:`search_bound`,
    which always contains a witness when one exists because candidates are
    required to be splines: their leading entries are then multiples of the
    minimal ones, and a spline reaching the minimal one refutes any strict
    multiple.  Each scan considers at most ``max_states`` candidate values.
    """
    budget = EnumerationBudget(search_bound(graph), max_states)
    cands = _check_flow_up_family(candidates, vertex_count(graph), "candidate", graph)
    for i, cand in enumerate(cands):
        lead = cand.entries[i]
        if abs(lead) == 1:
            continue
        for t in _iter_graph_splines(graph, i, budget):
            if t[i] % lead != 0:
                return False
    return True
