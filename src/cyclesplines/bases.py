"""Flow-up bases for the module of splines on an edge-labeled cycle.

A flow-up spline with k leading zeros vanishes at the first k vertices and
is nonzero at vertex k + 1; its entry there is called the leading entry.
On a cycle the minimal achievable positive leading entry for k >= 1 is

    m_k = lcm(label(k), gcd(label(k + 1), ..., label(n))),

and a set of n flow-up splines, one for each zero count 0..n - 1, is a
basis exactly when every leading entry is minimal in absolute value and the
element with no zeros is the all-ones spline up to sign.  This module
provides three constructions that hit those minima and the checker.
Triangulation and smallest are one chain of paired congruences with two
representatives per step (pinned, or least positive); king has constant
middle runs.  All three are closed forms and work at any n.

The builders find each element's jumps, the positions and values of its
nonzero first differences, and make the element from n and those alone,
so an element costs O(change steps) Python work: one per chain step that
can change an entry, and none for king.  Its entries are laid out from the
jumps, run by run, only when something reads them.  Every Spline carries
its jumps, and certifying a basis with :func:`check_flow_up_basis` reads
only those, as do the leading entries, decomposition and products, so
each costs O(jumps) per element, a few each, whatever n is, and lays out
no element.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Optional, Sequence

from .errors import KingPreconditionError, _dataclass_repr, _int_text
from .spline_core import (
    EdgeLabeledCycle,
    Spline,
    SplineLike,
    _check_flow_up_family,
    _spline_from_jumps,
    trivial_spline,
)

BASIS_KINDS = ("triangulation", "king", "smallest", "custom")

_SYMBOLS = {"triangulation": "H", "king": "K", "smallest": "G", "custom": "G"}


def smallest_leading_entry(cycle: EdgeLabeledCycle, k: int) -> int:
    """m_k = lcm(label(k), gcd(label(k + 1), ..., label(n))) for k in [1, n - 1].

    Every spline with k leading zeros has a leading entry that is an integer
    multiple of this value, and the value is achieved: it is the modulus of
    the cycle's chain step into position k + 1, read from its table.
    """
    if not 1 <= k <= cycle.n - 1:
        raise IndexError(f"k must be in [1, {cycle.n - 1}], got {k}")
    return cycle._chain_steps[k - 1][1]


def triangulation_spline(cycle: EdgeLabeledCycle, k: int) -> Spline:
    """Flow-up element with k leading zeros built by chaining paired congruences.

    The leading entry at position k + 1 is m_k; each later entry solves

        h_i = h_{i-1} (mod label(i - 1)),   h_i = 0 (mod gcd(label(i), ..., label(n)))

    via the canonical representative of :func:`solve_congruence_pair`.  The
    second congruence is what keeps the next step solvable, so the chain
    never raises.  k = 0 returns the all-ones spline.

    The moduli of step i do not depend on k, so the chain costs O(n) number
    theory once per cycle, which keeps the steps (see :func:`congruence_step`)
    and the few at which an entry can change.  An element then costs one
    Python step per such change and O(n) C-level work to lay out its runs.
    """
    n = cycle.n
    if not 0 <= k <= n - 1:
        raise IndexError(f"k must be in [0, {n - 1}], got {k}")
    return _chain_element(cycle, k, least=False)


def _chain_element(cycle: EdgeLabeledCycle, k: int, least: bool) -> Spline:
    """Element k of the chain: the pinned representative of each step, or
    with ``least`` the least positive one.  Its leading entry is m_k, the
    lcm of the step into position k + 1.

    Only the steps in ``cycle._chain_changes`` are walked; every other step
    keeps the entry, so the element has one jump per recorded position."""
    n = cycle.n
    if k == 0:
        return trivial_spline(n)
    changes = cycle._chain_changes[least]
    h = cycle._chain_steps[k - 1][1]
    positions, values = [k], [h]
    # (k + 1,) sorts before every step (k + 1, mult, period) into position k + 1
    for p, mult, period in changes[bisect_left(changes, (k + 1,)) :]:
        # h > 0, so h * mult is 0 exactly when mult is, and then period == b
        new = (h * mult % period if least else h * mult) or period
        if new != h:
            positions.append(p)
            values.append(new - h)
            h = new
    return _spline_from_jumps(n, tuple(positions), tuple(values))


@dataclass(frozen=True)
class FlowUpBasis:
    """An indexed family of flow-up splines on a cycle, element k having
    exactly k leading zeros.

    Besides the elements, a basis keeps ``_jumps``, the tuple of their
    jumps: slot k holds the (positions, values) of the nonzero first
    differences of element k, in ascending position order, the first being
    (k, leading entry).  It is read off the elements, which carry their
    jumps, so the two cannot disagree.  ``_levels``, the running sums of
    each element's jump values, is made on first use by the products.
    """

    cycle: EdgeLabeledCycle
    elements: tuple[Spline, ...]
    kind: str = "custom"
    __repr__ = _dataclass_repr

    def __post_init__(self) -> None:
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"kind must be one of {BASIS_KINDS}, got {self.kind!r}")
        elements = _check_flow_up_family(self.elements, self.cycle.n, "element")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_jumps", tuple(e._jumps for e in elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Spline]:
        return iter(self.elements)

    def __getitem__(self, k: int) -> Spline:
        return self.elements[k]

    @cached_property
    def _levels(self) -> tuple[tuple[int, ...], ...]:
        # slot k holds element k's prefix levels: its entry at each of its
        # jump positions, the running sums of its jump values
        return tuple(tuple(accumulate(values)) for _, values in self._jumps)

    @property
    def symbol(self) -> str:
        """One-letter name used when printing elements (H, K, or G)."""
        return _SYMBOLS[self.kind]

    def leading_entries(self) -> tuple[int, ...]:
        # element k's first jump is at position k, so its value is the lead
        return tuple(values[0] for _, values in self._jumps)


def triangulation_basis(cycle: EdgeLabeledCycle) -> FlowUpBasis:
    """The flow-up basis whose elements are :func:`triangulation_spline` for
    k = 0..n - 1, sharing one table of chain steps."""
    elements = [_chain_element(cycle, k, False) for k in range(cycle.n)]
    return FlowUpBasis(cycle, tuple(elements), "triangulation")


def king_basis(cycle: EdgeLabeledCycle) -> FlowUpBasis:
    """Flow-up basis with constant middle runs; needs the last two labels coprime.

    Writing a = label(n - 1), b = label(n) and inv for the least
    non-negative inverse of b modulo a (0 when a == 1):

    * element 0 is the all-ones spline;
    * element i (1 <= i <= n - 2) is (0 x i, l_i, ..., l_i, l_i * b * inv);
    * element n - 1 is (0, ..., 0, a * b).

    Raises :class:`KingPreconditionError` when gcd(a, b) != 1.
    """
    n = cycle.n
    a, b, inv = _king_tail(cycle)
    # element i jumps by l_i at i, and by k_i - l_i = l_i * d at n - 1
    # unless d == 0
    d = b * inv - 1
    last = n - 1
    middle = [
        _spline_from_jumps(n, (i, last), (li, li * d)) if d else _spline_from_jumps(n, (i,), (li,))
        for i, li in enumerate(cycle.labels[: n - 2], start=1)
    ]
    elements = (trivial_spline(n), *middle, _spline_from_jumps(n, (last,), (a * b,)))
    return FlowUpBasis(cycle, elements, "king")


def _king_tail(cycle: EdgeLabeledCycle) -> tuple[int, int, int]:
    """(a, b, inv) of :func:`king_basis`, checking its precondition."""
    a, b = cycle.labels[-2:]
    g = math.gcd(a, b)
    if g != 1:
        a, b, g = map(_int_text, (a, b, g))
        raise KingPreconditionError(
            f"the last two edge labels must be coprime: gcd({a}, {b}) = {g}"
        )
    return a, b, pow(b, -1, a)


@dataclass(frozen=True)
class BasisDefect:
    """One reason a well-formed candidate set fails to be a basis."""

    index: int
    reason: str
    expected: Optional[int] = None
    actual: Optional[int] = None
    __repr__ = _dataclass_repr

    def describe(self) -> str:
        text = f"element {self.index}: {self.reason}"
        if self.expected is not None:
            text += f" (expected {_int_text(self.expected)}, got {_int_text(self.actual)})"
        return text


@dataclass(frozen=True)
class BasisCheck:
    """Outcome of :func:`check_flow_up_basis`; truthy exactly when it is a basis."""

    ok: bool
    defects: tuple[BasisDefect, ...]
    __repr__ = _dataclass_repr

    def __bool__(self) -> bool:
        return self.ok


def check_flow_up_basis(
    cycle: EdgeLabeledCycle, candidates: Sequence[SplineLike]
) -> BasisCheck:
    """Decide basis-hood of n flow-up candidates from their leading entries.

    A malformed candidate set (wrong count, wrong zero pattern, or an entry
    vector that is not a spline) raises :class:`BasisStructureError` naming
    the offending index.  A well-formed set is a basis iff candidate 0 is
    the all-ones spline up to sign and, for every k >= 1, candidate k's
    leading entry is plus or minus m_k, read from the cycle's chain steps.

    Every check reads the candidates' jumps (see :class:`Spline`): a
    candidate's leading-zero count is its first jump position and its
    leading entry the value of that jump, edge p < n holds exactly when the
    jump at position p is divisible by label p, the wrap edge compares the
    first jump's value with the sum of them all, and candidate 0 is all ones
    up to sign exactly when its one jump is +-1.  So a candidate costs
    O(jumps), whatever n is, and no entries are laid out.  A failing
    candidate is reported by its first violated edge.
    """
    n = cycle.n
    cands = _check_flow_up_family(candidates, n, "candidate", cycle)
    defects = []
    values = cands[0]._jumps[1]
    if len(values) != 1 or abs(values[0]) != 1:
        defects.append(
            BasisDefect(
                0,
                "must be the all-ones spline up to sign",
                expected=1,
                actual=values[0],
            )
        )
    for k, (_, want) in enumerate(cycle._chain_steps, start=1):
        got = cands[k]._jumps[1][0]
        if abs(got) != want:
            defects.append(
                BasisDefect(
                    k,
                    "leading entry is not minimal in absolute value",
                    expected=want,
                    actual=got,
                )
            )
    return BasisCheck(not defects, tuple(defects))


def smallest_flow_up_class(cycle: EdgeLabeledCycle, k: int) -> Spline:
    """Smallest flow-up spline with k leading zeros and positive remaining
    entries, minimizing entries left to right.

    A partial labeling ending in h at position i extends to a flow-up
    spline exactly when suffix_gcd(i) divides h, so the minimizer is the
    triangulation chain with the least positive solution taken at each
    step: at most lcm(label(i - 1), suffix_gcd(i)) per entry, and never
    above the matching triangulation entry.  Works at any n, and so does
    its certificate, :func:`oracle.lattice_smallest`.
    """
    n = cycle.n
    if not 1 <= k <= n - 1:
        raise IndexError(f"k must be in [1, {n - 1}], got {k}")
    return _chain_element(cycle, k, least=True)


def smallest_basis(cycle: EdgeLabeledCycle) -> FlowUpBasis:
    """Flow-up basis whose element k is :func:`smallest_flow_up_class`, with
    the all-ones spline at index 0, sharing one table of chain steps."""
    elements = [_chain_element(cycle, k, True) for k in range(cycle.n)]
    return FlowUpBasis(cycle, tuple(elements), "smallest")
