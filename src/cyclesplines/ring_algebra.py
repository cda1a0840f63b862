"""Products and decompositions in flow-up bases.

Because element k of a flow-up basis is the only one with a nonzero entry
at position k + 1 among elements k..n - 1, coefficients can be peeled off
front to back by exact division (forward substitution).  Peeling and
combining work on first differences: king elements are constant runs and
triangulation entries repeat wherever the chain multiplier is 1, so each
element has few nonzero differences ("jumps").  Every Spline carries its
jumps and a basis keeps its elements' in ``FlowUpBasis._jumps``, and their
running sums in ``FlowUpBasis._levels``, so nothing here reads an element's
entries, and a built element is never laid out.  The one peel keeps only
the nonzero differences, by position, so a step costs one per jump and
never one per position: a product of two elements, which differs only at
their jumps, costs O(jumps) whatever n is, and a table n² times that.
On top of that this module provides the closed-form products of king
basis elements, the closed-form three-cycle table in the triangulation
basis, and a generic product path (componentwise multiply, then
decompose) that works in any flow-up basis on any cycle.  Both tables
check each cell once, against the peel of the componentwise product.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Callable, Sequence

from .bases import FlowUpBasis, _king_tail, king_basis, triangulation_basis
from .errors import DimensionError, InvariantViolationError, NotInSpanError, _dataclass_repr, _int_text
from .spline_core import Spline, SplineLike, _as_spline


def decompose(s: SplineLike, basis: FlowUpBasis) -> tuple[int, ...]:
    """Coefficients c with s equal to the sum of c[k] * basis[k].

    Peels on the jumps that s carries (see :func:`_peel`), at O(jumps)
    per nonzero coefficient.

    Raises :class:`NotInSpanError` when a peeling step hits a non-integer
    quotient.  A vector that fails the edge congruences always does: every
    integer combination of basis elements satisfies them, and step k leaves
    position k zero for good, so no remainder survives the last step.
    """
    spline = _as_spline(s)
    n = len(basis)
    if len(spline) != n:
        raise DimensionError(f"expected {n} entries, got {len(spline)}")
    coefficients = [0] * n
    for k, c in _peel(dict(zip(*spline._jumps)), basis):
        coefficients[k] = c
    return tuple(coefficients)


def _peel(differences: dict[int, int], basis: FlowUpBasis) -> tuple[tuple[int, int], ...]:
    """The (k, c) terms, ascending in k and with c != 0, of the combination
    of basis elements whose first differences are ``differences``, a map
    from position to difference with its keys in ascending order, which is
    consumed.  Positions missing from it have difference 0.

    Before step k the remainder vanishes at positions 1..k, so its
    difference at position k + 1 is its entry there, and subtracting
    c * basis[k] touches only that element's jumps.  Those all lie at k or
    past it, so a position they add to the map is still pending, and the
    cost is O(jumps) per term, whatever n is.
    """
    jumps = basis._jumps
    terms = []
    pending = list(differences)
    # a for loop reads a list by index, so it reaches every position
    # inserted past the current one
    for k in pending:
        value = differences[k]
        if not value:
            continue
        positions, values = jumps[k]
        lead = values[0]
        c, remainder = divmod(value, lead)
        if remainder:
            raise NotInSpanError(
                f"entry {_int_text(value)} at position {k + 1} is not a multiple of the "
                f"leading entry {_int_text(lead)} of basis element {k}"
            )
        terms.append((k, c))
        for p, v in zip(positions, values):
            try:
                differences[p] -= c * v
            except KeyError:
                differences[p] = -c * v
                insort(pending, p)
    return tuple(terms)


def _product_differences(basis: FlowUpBasis, i: int, j: int) -> dict[int, int]:
    """First differences of basis[i] * basis[j], keyed by position in
    ascending order, over the jump positions of the two elements from
    max(i, j) on.  Before that the later element is zero, and so is the
    product; where neither element jumps, both factors repeat their
    previous entry, and so does the product.

    The two elements' jump positions are merged from max(i, j) on, each
    factor's entry read off its prefix levels (``FlowUpBasis._levels``)
    where it jumps and kept where it does not, so no entry is read and no
    Spline attribute either: O(jumps) steps per product."""
    if i > j:
        i, j = j, i
    jumps, levels = basis._jumps, basis._levels
    positions, earlier = jumps[i][0], levels[i]
    end, count = len(jumps), len(positions)
    # element i's jumps from j on, one at a time; end once they run out
    a = bisect_left(positions, j)
    x = earlier[a - 1] if a else 0
    p = positions[a] if a < count else end
    differences = {}
    previous = y = 0
    for q, level in zip(jumps[j][0], levels[j]):
        while p < q:
            x = earlier[a]
            a += 1
            product = x * y
            differences[p] = product - previous
            previous = product
            p = positions[a] if a < count else end
        if p == q:
            x = earlier[a]
            a += 1
            p = positions[a] if a < count else end
        y = level
        product = x * y
        differences[q] = product - previous
        previous = product
    while p < end:
        x = earlier[a]
        a += 1
        product = x * y
        differences[p] = product - previous
        previous = product
        p = positions[a] if a < count else end
    return differences


def reconstruct(coefficients: Sequence[int], basis: FlowUpBasis) -> Spline:
    """Inverse of :func:`decompose`: the integer combination of basis elements."""
    n = len(basis)
    if len(coefficients) != n:
        raise DimensionError(f"expected {n} coefficients, got {len(coefficients)}")
    # first differences of the sum of c * basis[k] over the nonzero c
    total = [0] * n
    for k, c in zip(compress(range(n), coefficients), filter(None, coefficients)):
        positions, values = basis._jumps[k]
        for p, v in zip(positions, values):
            total[p] += c * v
    # validated, so that a non-integer coefficient is rejected
    return Spline(tuple(accumulate(total)))


@dataclass(frozen=True, slots=True)
class ProductDecomposition:
    """A product of two basis elements written in the basis itself.

    ``terms`` holds (basis index, coefficient) pairs in ascending index
    order with zero coefficients dropped; ``i <= j`` always, products being
    symmetric.
    """

    i: int
    j: int
    terms: tuple[tuple[int, int], ...]
    __repr__ = _dataclass_repr

    def coefficients(self, n: int) -> tuple[int, ...]:
        """Dense coefficient vector of length n."""
        dense = [0] * n
        for index, coefficient in self.terms:
            dense[index] = coefficient
        return tuple(dense)

    def reconstruct(self, basis: FlowUpBasis) -> Spline:
        return reconstruct(self.coefficients(len(basis)), basis)

    def render(self, symbol: str = "G") -> str:
        """Human form such as ``3*K3 + 48*K4``; the empty sum renders as 0."""
        if not self.terms:
            return "0"
        parts = []
        for index, coefficient in self.terms:
            body = f"{symbol}{index}" if abs(coefficient) == 1 else f"{abs(coefficient)}*{symbol}{index}"
            if not parts:
                parts.append(body if coefficient > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coefficient > 0 else f"- {body}")
        return " ".join(parts)


def _terms(pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple((index, coefficient) for index, coefficient in pairs if coefficient)


def product_in_basis(basis: FlowUpBasis, i: int, j: int) -> ProductDecomposition:
    """Generic product path: componentwise multiply, then decompose, both
    on first differences at the two elements' jumps, so the cost is
    O(jumps), with no pass over the n positions.

    Works in any flow-up basis on any cycle; the closed forms below are
    cross-checked against it.
    """
    n = len(basis)
    if not (0 <= i <= n - 1 and 0 <= j <= n - 1):
        raise IndexError(f"indices must be in [0, {n - 1}], got ({i}, {j})")
    if i > j:
        i, j = j, i
    return ProductDecomposition(i, j, _peel(_product_differences(basis, i, j), basis))


def _king_cell(cycle, i: int, j: int, a: int, b: int, inv: int) -> ProductDecomposition:
    """The king product of elements i and j, from the (a, b, inv) of
    :func:`king_basis`: element k ends in k_k = l_k * b * inv, and element
    n - 1 in k_{n-1} = a * b."""
    labels = cycle.labels
    n = len(labels)
    if not (0 <= i <= n - 1 and 0 <= j <= n - 1):
        raise IndexError(f"indices must be in [0, {n - 1}], got ({i}, {j})")
    if i > j:
        i, j = j, i
    if i == 0:
        return ProductDecomposition(i, j, ((j, 1),))
    k_last = a * b
    l_i = labels[i - 1]
    k_i = k_last if i == n - 1 else l_i * b * inv
    if j == n - 1:
        return ProductDecomposition(i, j, _terms(((n - 1, k_i),)))
    numerator = labels[j - 1] * b * inv * (k_i - l_i)
    c, remainder = divmod(numerator, k_last)
    if remainder:
        raise InvariantViolationError(
            f"king product coefficient {_int_text(numerator)}/{_int_text(k_last)} "
            f"is not integral"
        )
    # labels are positive, so only the K_{n-1} term can vanish
    return ProductDecomposition(i, j, ((j, l_i), (n - 1, c)) if c else ((j, l_i),))


def king_product(cycle, i: int, j: int) -> ProductDecomposition:
    """Closed-form product of king elements i and j.

    For 1 <= i <= j <= n - 2 the product is

        l_i * K_j  +  (k_j * (k_i - l_i) / k_{n-1}) * K_{n-1}

    where k_i is the last entry of element i; the second coefficient is
    always an integer.  Products with element 0 copy the other element, and
    j = n - 1 collapses to k_i * K_{n-1}.  Index order does not matter.

    The k_i come straight from :func:`king_basis`'s closed form (k_i =
    l_i * b * inv, k_{n-1} = a * b), so no basis is built.
    """
    return _king_cell(cycle, i, j, *_king_tail(cycle))


def _checked_table(
    basis: FlowUpBasis, cell: Callable[[int, int], ProductDecomposition]
) -> list[list[ProductDecomposition]]:
    """Symmetric table of cell(i, j) over i <= j, each cell checked once.

    The peel zeroes every position it visits and element k's jumps start at
    position k, so its terms sum to the componentwise product and are the
    only ascending, nonzero terms that do: a cell equal to them is both
    right and canonical.
    """
    n = len(basis)
    table: list[list[ProductDecomposition]] = [[None] * n for _ in range(n)]  # type: ignore[list-item]
    for i in range(n):
        for j in range(i, n):
            found = cell(i, j)
            peeled = _peel(_product_differences(basis, i, j), basis)
            if (found.i, found.j, found.terms) != (i, j, peeled):
                raise InvariantViolationError(
                    f"table cell ({i}, {j}) disagrees with the componentwise product"
                )
            table[i][j] = table[j][i] = found
    return table


def king_multiplication_table(cycle) -> list[list[ProductDecomposition]]:
    """Symmetric n x n table of king products; each cell is checked once,
    against the peel of the componentwise product, before return."""
    basis = king_basis(cycle)
    a, b, inv = _king_tail(cycle)
    return _checked_table(basis, lambda i, j: _king_cell(cycle, i, j, a, b, inv))


def triangulation_table_3cycle(cycle) -> list[list[ProductDecomposition]]:
    """Closed-form 3 x 3 multiplication table in the triangulation basis.

    Writing (0, h2, h3) for element 1 and (0, 0, t3) for element 2:

        H1*H1 = h2*H1 + phi*H2   with   phi = h3 * (h3 - h2) / t3,
        H1*H2 = h3*H2,           H2*H2 = t3*H2,

    and row 0 is the identity row.  phi is always an integer (it can be
    negative).  Only defined for three-cycles; longer cycles go through
    :func:`product_in_basis`.
    """
    if cycle.n != 3:
        raise DimensionError(
            f"the closed-form table exists only for 3-cycles, got n = {cycle.n}"
        )
    basis = triangulation_basis(cycle)
    h2, h3 = basis[1].entries[1], basis[1].entries[2]
    t3 = basis[2].entries[2]
    numerator = h3 * (h3 - h2)
    if numerator % t3 != 0:
        raise InvariantViolationError(
            f"triangulation product coefficient {_int_text(numerator)}/{_int_text(t3)} "
            f"is not integral"
        )
    phi = numerator // t3
    cells = {
        (0, 0): ((0, 1),),
        (0, 1): ((1, 1),),
        (0, 2): ((2, 1),),
        (1, 1): ((1, h2), (2, phi)),
        (1, 2): ((2, h3),),
        (2, 2): ((2, t3),),
    }
    return _checked_table(basis, lambda i, j: ProductDecomposition(i, j, _terms(cells[i, j])))
