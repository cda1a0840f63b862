"""Certificates of the closed forms that never consult them.

Everything exact at any size comes from one elimination:
:func:`_lattice_rows` echelons the spline lattice modulo the lcm of the
labels.  Its pivots are the minimal leading entries, which decide
basis-hood, and :func:`lattice_smallest` reads the smallest flow-up spline
off its rows.  The rest is a desk-scale reference search on cycles: it
fills the vertices in order, each walking the residue class of an edge to
an earlier vertex, in one flat loop, so any number of vertices fits the
stack, and it yields in ascending lexicographic order, so the smallest
spline is its first hit.  Its cost grows with the box, so it serves
desk-scale cycles only, as the reference the tests hold the lattice to.
:func:`brute_force_smallest` searches the box of the largest pivot,
which provably holds its answer, under the fixed state limit
``DEFAULT_MAX_STATES``: it counts the candidate values considered and
aborts with :class:`BudgetExceededError` rather than running away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceededError, InvariantViolationError, _dataclass_repr, _int_text
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


def default_budget(graph: GraphLike) -> EnumerationBudget:
    """Budget whose entry bound is the product of all edge labels.

    Adding that product to any single entry preserves every congruence, so
    each residue pattern of a spline has a representative inside the box.
    """
    return EnumerationBudget(graph.label_product())


def smallest_class_bound(cycle: EdgeLabeledCycle) -> int:
    """A tight entry bound that still contains the smallest flow-up class:
    the largest of :func:`_lattice_pivots`.

    Entry j + 1 of the smallest positive spline with k <= j leading zeros
    lies in [1, pivot j]: subtracting a multiple of a spline that reaches
    pivot j keeps the entries before j + 1, and adding multiples of the
    later ones makes the entries after it positive again.  Far smaller than
    the label product, which makes exhaustive certification feasible on
    five-vertex cycles.
    """
    return max(_lattice_pivots(cycle))


def _lattice_pivots(graph: GraphLike) -> list[int]:
    """Slot k is the least positive entry at vertex k + 1 of a spline whose
    first k entries vanish: the diagonal of :func:`_lattice_rows`."""
    return [row[k] for k, row in enumerate(_lattice_rows(graph))]


def _lattice_rows(graph: GraphLike) -> list[dict[int, int]]:
    """Row k is the vertex part of the pivot row of vertex k + 1, as a sparse
    map from position to entry: a spline modulo D whose first k entries
    vanish and whose entry k is its pivot, the least positive one possible.

    They come from the echelon (Hermite) form of the lattice spanned by
    (e_v | incidence of v) per vertex and (0 | label * e_e) per edge, whose
    vectors with zero edge part are the splines.  D, the lcm of the labels,
    times any unit vector lies in it, so each pivot starts at D and entries
    are kept modulo D (Cohen, *A Course in Computational Algebraic Number
    Theory*, 2.4).  Edge columns are eliminated first, and folding in the
    label rows first keeps the rows short.
    """
    edges = labeled_edges(graph)
    m, n, d = len(edges), vertex_count(graph), math.lcm(*(lab for *_, lab in edges))
    pivots = [{c: d} for c in range(m + n)]
    rows = [{c: lab} for c, (*_, lab) in enumerate(edges)] + [{m + v: 1} for v in range(n)]
    for c, (_, u, v, _) in enumerate(edges):
        rows[m + u - 1][c], rows[m + v - 1][c] = 1, -1
    for row in rows:
        row = _combine(row, 1, {}, 0, d)  # reduced modulo d, zeros dropped
        while row:
            c = min(row)
            pivot = pivots[c]
            p, x = pivot[c], row[c]
            g = math.gcd(p, x)
            # s p + t x = g makes the new pivot, and (x / g) pivot - (p / g) row
            # the rest of the row, without column c
            t = pow(x // g, -1, p // g)
            pivots[c] = _combine(pivot, (g - t * x) // p, row, t, d)
            row = _combine(pivot, x // g, row, -(p // g), d)
    # a pivot row of a vertex column is zero in every edge column
    return [{c - m: x for c, x in pivot.items()} for pivot in pivots[m:]]


def lattice_smallest(graph: GraphLike, k: int) -> Spline:
    """Smallest spline with exactly k leading zeros and positive remaining
    entries, comparing entry tuples left to right, read off the lattice.

    Entry k is pivot k, reached by row k of :func:`_lattice_rows`.  With the
    entries before j fixed, entry j can move by exactly the multiples of
    pivot j, so subtracting a multiple of row j, which keeps them, brings it
    to the least positive value, in [1, pivot j].  Exact at any size, and
    independent of the closed forms: no chain, king or m_k value is read.
    """
    n = vertex_count(graph)
    if not 1 <= k <= n - 1:
        raise IndexError(f"k must be in [1, {n - 1}], got {k}")
    rows = _lattice_rows(graph)
    entries = [0] * n
    for c, x in rows[k].items():
        entries[c] = x
    for j in range(k + 1, n):
        q = (entries[j] - 1) // rows[j][j]
        for c, x in rows[j].items():
            entries[c] -= q * x
    return _trusted_spline(tuple(entries))


def _combine(a: dict[int, int], s: int, b: dict[int, int], t: int, d: int) -> dict[int, int]:
    # s a + t b modulo d, as a sparse row without zero entries
    out = {}
    for c in a.keys() | b.keys():
        value = (s * a.get(c, 0) + t * b.get(c, 0)) % d
        if value:
            out[c] = value
    return out


def enumerate_flow_up_splines(
    cycle: EdgeLabeledCycle, k: int, budget: Optional[EnumerationBudget] = None
) -> list[Spline]:
    """All splines on the cycle with at least k leading zeros and entries in
    [0, budget.entry_bound], zero spline included."""
    if not 1 <= k <= cycle.n - 1:
        raise IndexError(f"k must be in [1, {cycle.n - 1}], got {k}")
    if budget is None:
        budget = default_budget(cycle)
    return [_trusted_spline(t) for t in _iter_cycle_splines(cycle, k, budget)]


def brute_force_smallest(cycle: EdgeLabeledCycle, k: int) -> Spline:
    """Smallest enumerated spline with exactly k leading zeros and positive
    remaining entries, comparing entry tuples left to right.

    Minimizing the leftmost entries first is the order under which a minimum
    exists: positive flow-up splines need not be comparable entry by entry.
    The search box is :func:`smallest_class_bound`'s, which provably
    contains the minimizer, and at most ``DEFAULT_MAX_STATES`` candidate
    values are considered; a caller who needs another limit lists the same
    box with :func:`enumerate_flow_up_splines`.  The result is one of the
    enumerated labelings, so attainment is automatic; that a hit exists and
    is a spline is still re-checked, and a failure there would be a bug in
    the enumerator.  The desk-scale reference for :func:`lattice_smallest`.
    """
    if not 1 <= k <= cycle.n - 1:
        raise IndexError(f"k must be in [1, {cycle.n - 1}], got {k}")
    budget = EnumerationBudget(smallest_class_bound(cycle), DEFAULT_MAX_STATES)
    # the search ascends lexicographically, so its first hit is the minimum
    best = next((t for t in _iter_cycle_splines(cycle, k, budget) if 0 not in t[k:]), None)
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


def verify_triangulated_extension(cycle: EdgeLabeledCycle, h: SplineLike) -> bool:
    """True when ``h`` satisfies every congruence of the chord-augmented graph,
    whatever its number of leading zeros."""
    return bool(is_spline(triangulated_graph(cycle), h))


def _iter_cycle_splines(
    cycle: EdgeLabeledCycle, k: int, budget: EnumerationBudget
) -> Iterator[tuple[int, ...]]:
    """Yield entry tuples of splines on the cycle with the first k vertices
    pinned to zero, 1 <= k <= n - 1, and entries in the box, in ascending
    lexicographic order."""
    n, labels = cycle.n, cycle.labels
    bound, limit, spent = budget.entry_bound, budget.max_states, 0
    # slot t plans vertex t as (earlier vertex - 1, label walked): vertex
    # t < n walks the class of edge t - 1, and vertex n walks the larger
    # label of edges n - 1 and n (edge n - 1 on a tie) and is filtered by
    # the other, (i1, lab1); slots 0 and 1 are never read
    edge_n1, edge_n = (n - 2, labels[n - 2]), (0, labels[n - 1])
    walked, (i1, lab1) = (edge_n, edge_n1) if edge_n[1] > edge_n1[1] else (edge_n1, edge_n)
    plan = [(t - 2, labels[t - 2]) for t in range(n)] + [walked]
    acc = [0] * n
    # each vertex's open walk, an iterator holding its next value; None if closed
    walks: list[Optional[Iterator[int]]] = [None] * (n + 1)
    pos = k + 1
    while pos > k:
        i0, lab0 = plan[pos]
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
            if pos < n:
                # val meets the one edge down: go deeper
                acc[pos - 1] = val
                break
            if (val - acc[i1]) % lab1 == 0:
                # the last vertex meets both its edges: yield
                acc[pos - 1] = val
                yield tuple(acc)
        else:
            # spent: close the walk and step back; acc[pos - 1] is rewritten before use
            walks[pos] = None
            pos -= 1
            continue
        pos += 1


def check_basis_by_definition(graph: GraphLike, candidates: Sequence[SplineLike]) -> bool:
    """Decide basis-hood straight from the defining divisibility condition.

    For each index i, every spline whose first i entries vanish must have
    its entry at position i + 1 divisible by candidate i's leading entry.
    Candidates must be splines, so theirs are multiples of
    :func:`_lattice_pivots`' slot i, and the condition holds exactly when
    each is plus or minus its pivot.  No search, box or budget.
    """
    cands = _check_flow_up_family(candidates, vertex_count(graph), "candidate", graph)
    return [abs(cand.entries[i]) for i, cand in enumerate(cands)] == _lattice_pivots(graph)
