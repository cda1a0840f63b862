"""Shared helpers: seeded RNG, random cycle factories, the extended Euclid
reference, the per-entry chain reference, the dense peeling reference and
the oracle's former enumerators."""

import math
import random
from itertools import compress

import pytest

from cyclesplines import BudgetExceededError, EdgeLabeledCycle, NotInSpanError
from cyclesplines.errors import _int_text

SEED = 987654321


@pytest.fixture
def rng():
    return random.Random(SEED)


def random_cycle(rng, n_range=(3, 8), label_range=(1, 30)):
    n = rng.randint(*n_range)
    return EdgeLabeledCycle(tuple(rng.randint(*label_range) for _ in range(n)))


def random_king_cycle(rng, n_range=(3, 8), label_range=(1, 30)):
    # resample until the last two labels are coprime
    while True:
        cycle = random_cycle(rng, n_range, label_range)
        if math.gcd(cycle.label(cycle.n - 1), cycle.label(cycle.n)) == 1:
            return cycle


def egcd(a, b):
    """Extended Euclid: return (g, s, t) with g = gcd(a, b) >= 0 and a*s + b*t = g."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ------------------------------------------------------- chain elements


def reference_chain_element(cycle, k, least):
    """Element k of the triangulation chain, or with ``least`` of the
    smallest one, as the library built it before it walked only the steps
    that change an entry: one multiply, or a reset to the period, per entry."""
    n = cycle.n
    if k == 0:
        return (1,) * n
    steps = cycle._chain_steps
    h = steps[k - 1][1]
    entries = [0] * k + [h]
    for mult, period in steps[k:]:
        # h > 0, so h * mult is 0 exactly when mult is, and then period == b
        h = (h * mult % period if least else h * mult) or period
        entries.append(h)
    return tuple(entries)


# ------------------------------------------------------ dense peeling
# decompose, reconstruct and product_in_basis as they were before
# ring_algebra worked on first differences: each nonzero coefficient
# rewrites the whole tail of the remainder or of the sum.


def reference_decompose(entries, basis):
    n = len(basis)
    work = list(entries)
    coefficients = [0] * n
    for k in compress(range(n), work):
        element = basis.elements[k].entries
        lead = element[k]
        value = work[k]
        if value % lead != 0:
            raise NotInSpanError(
                f"entry {_int_text(value)} at position {k + 1} is not a multiple of the "
                f"leading entry {_int_text(lead)} of basis element {k}"
            )
        c = coefficients[k] = value // lead
        work[k:] = [w - c * e for w, e in zip(work[k:], element[k:])]
    return tuple(coefficients)


def reference_reconstruct(coefficients, basis):
    n = len(basis)
    total = [0] * n
    for k in compress(range(n), coefficients):
        c = coefficients[k]
        total[k:] = [t + c * e for t, e in zip(total[k:], basis.elements[k].entries[k:])]
    return tuple(total)


def reference_product_terms(basis, i, j):
    """The terms of product_in_basis(basis, i, j)."""
    product = [a * b for a, b in zip(basis[i].entries, basis[j].entries)]
    coefficients = reference_decompose(product, basis)
    return tuple((k, c) for k, c in enumerate(coefficients) if c)


# ------------------------------------------------ enumeration references
# The two enumerators the oracle had before its one flat cycle search, kept
# as written then.  That search must yield the same tuples in the same
# order, and the graph listing is the reference for the lattice on graphs.


class ReferenceStates:
    """One state per candidate value considered, as the references count."""

    def __init__(self, limit):
        self.left = limit
        self.limit = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError(f"enumeration exceeded its budget of {self.limit} states")


def reference_cycle_flow_up(cycle, k, budget):
    """Entry tuples of splines on the cycle with >= k leading zeros: position
    i + 1 walks the residue class of position i modulo label(i), and the
    last position is also filtered by the wrap-around edge."""
    n = cycle.n
    if not 1 <= k <= n - 1:
        raise IndexError(f"k must be in [1, {n - 1}], got {k}")
    labels = cycle.labels
    bound = budget.entry_bound
    counter = ReferenceStates(budget.max_states)
    wrap = labels[n - 1]
    acc = [0] * n

    def extend(pos):
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


def reference_graph_splines(graph, min_leading_zeros, budget):
    """Entry tuples of splines on a general graph with the first
    ``min_leading_zeros`` vertices pinned to zero: each vertex walks the
    class of its largest-label lower edge and checks all of its lower edges."""
    n = graph.vertex_count
    if not 0 <= min_leading_zeros <= n:
        raise IndexError(f"leading zero count must be in [0, {n}], got {min_leading_zeros}")
    bound = budget.entry_bound
    counter = ReferenceStates(budget.max_states)
    lower = [[] for _ in range(n + 1)]
    for u, v, lab in graph.edges:
        a, b = (u, v) if u < v else (v, u)
        lower[b].append((a, lab))
    acc = [0] * n

    def extend(pos):
        if pos > n:
            yield tuple(acc)
            return
        cons = lower[pos]
        if cons:
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


def reference_check_basis(graph, candidates, budget):
    """The basis condition by definition over :func:`reference_graph_splines`,
    for well-formed flow-up candidates."""
    for i, cand in enumerate(candidates):
        lead = cand[i]
        if abs(lead) == 1:
            continue
        for t in reference_graph_splines(graph, i, budget):
            if t[i] % lead != 0:
                return False
    return True
