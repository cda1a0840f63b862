"""Edge-labeled graphs and the integer splines that live on them.

A spline on an edge-labeled graph assigns an integer to every vertex so
that the two endpoint values of each edge agree modulo the edge label.
Splines form a ring under vertex-wise addition and multiplication and a
module over the integers; the rest of the package builds bases for that
module when the graph is a cycle.

Conventions used everywhere:

* vertices and edges are 1-based in every message and interface;
* on a cycle with n edges, edge i joins vertices i and i + 1 for i < n,
  and edge n joins vertices n and 1;
* splines are written in tuple order (g_1, ..., g_n).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from typing import Iterator, Sequence, Union

from .errors import BasisStructureError, DimensionError, _dataclass_repr, _int_text
from .numtheory import congruence_step


def _as_int_tuple(values, what: str) -> tuple[int, ...]:
    """Coerce an iterable of integer-likes to a tuple of ints, rejecting floats."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise TypeError(f"{what} must be integers") from exc


@dataclass(frozen=True)
class EdgeLabeledCycle:
    """A cycle on n >= 3 vertices with a positive integer label on each edge.

    ``labels[i - 1]`` is the label of edge i; edge i joins vertices i and
    i + 1 for i < n, and edge n joins vertices n and 1.
    """

    labels: tuple[int, ...]
    __repr__ = _dataclass_repr

    def __post_init__(self) -> None:
        labels = _as_int_tuple(self.labels, "edge labels")
        object.__setattr__(self, "labels", labels)
        if len(labels) < 3:
            raise ValueError(f"a cycle needs at least 3 edges, got {len(labels)}")
        for i, lab in enumerate(labels, start=1):
            if lab < 1:
                raise ValueError(f"edge label {i} must be positive, got {lab}")

    @property
    def n(self) -> int:
        return len(self.labels)

    def label(self, i: int) -> int:
        """The label of edge i, 1-based."""
        if not 1 <= i <= self.n:
            raise IndexError(f"edge index must be in [1, {self.n}], got {i}")
        return self.labels[i - 1]

    @cached_property
    def _suffix_gcds(self) -> tuple[int, ...]:
        # one backward pass; slot i - 1 holds gcd(labels[i - 1], ..., labels[n - 1])
        return tuple(accumulate(reversed(self.labels), math.gcd))[::-1]

    @cached_property
    def _chain_steps(self) -> tuple[tuple[int, int], ...]:
        # slot i - 2 holds (mult, lcm(a, b)) for the step of the flow-up
        # chain that produces entry i from entry i - 1, for i in [2, n], with
        # a = label(i - 1) and b = suffix_gcd(i).  Entry i - 1 is a multiple
        # of suffix_gcd(i - 1) = gcd(a, b), so every step is solvable, and
        # its solutions form one residue class modulo lcm(a, b): that of
        # entry * mult, or of b when mult is 0.
        steps = []
        for a, b in zip(self.labels, self._suffix_gcds[1:]):
            g, mult = congruence_step(a, b)
            steps.append((mult, a // g * b))
        return tuple(steps)

    @cached_property
    def _chain_changes(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        # the steps of _chain_steps at which an entry can change, as (p, mult,
        # period) with p the 0-based position the step fills, for the pinned
        # and then the least positive representative.  A step with mult == 1
        # keeps the pinned h * mult == h.  An entry never exceeds the period
        # of the step that made it, so that step also keeps the least
        # h % period or period == h, unless its period is below the previous
        # step's.
        steps = [(s + 1, mult, period) for s, (mult, period) in enumerate(self._chain_steps)]
        previous = (0, *(period for _, _, period in steps))
        return (
            tuple(step for step in steps if step[1] != 1),
            tuple(
                step for step, prior in zip(steps, previous) if step[1] != 1 or step[2] < prior
            ),
        )

    def suffix_gcd(self, i: int) -> int:
        """gcd of the labels of edges i, i + 1, ..., n; defined for 1 <= i <= n."""
        if not 1 <= i <= self.n:
            raise IndexError(f"edge index must be in [1, {self.n}], got {i}")
        return self._suffix_gcds[i - 1]

    def edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (edge index, u, v, label) with 1-based vertex indices."""
        n = self.n
        for i in range(1, n):
            yield i, i, i + 1, self.labels[i - 1]
        yield n, n, 1, self.labels[n - 1]

    def label_product(self) -> int:
        return math.prod(self.labels)

    def as_graph(self) -> "EdgeLabeledGraph":
        return EdgeLabeledGraph(
            self.n, tuple((u, v, lab) for _, u, v, lab in self.edges())
        )


@dataclass(frozen=True)
class EdgeLabeledGraph:
    """A finite graph on vertices 1..vertex_count with positive edge labels."""

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]
    __repr__ = _dataclass_repr

    def __post_init__(self) -> None:
        count = operator.index(self.vertex_count)
        object.__setattr__(self, "vertex_count", count)
        if count < 1:
            raise ValueError(f"vertex count must be positive, got {count}")
        cleaned = []
        for pos, edge in enumerate(self.edges, start=1):
            u, v, lab = map(operator.index, edge)
            if not (1 <= u <= count and 1 <= v <= count):
                raise ValueError(f"edge {pos} endpoints ({u}, {v}) outside [1, {count}]")
            if u == v:
                raise ValueError(f"edge {pos} is a self-loop at vertex {u}")
            if lab < 1:
                raise ValueError(f"edge {pos} label must be positive, got {lab}")
            cleaned.append((u, v, lab))
        object.__setattr__(self, "edges", tuple(cleaned))

    def label_product(self) -> int:
        return math.prod(lab for _, _, lab in self.edges)


@dataclass(frozen=True)
class Spline:
    """Integer vertex labels in tuple order (g_1, ..., g_n).

    Operators: ``+`` and ``-`` are vertex-wise, ``*`` is scalar
    multiplication when the other operand is an int and vertex-wise
    (pointwise) multiplication when it is another Spline.

    Every Spline also carries its length and its jumps in private slots,
    ``_n`` and ``_jumps``: the (positions, values) of its nonzero first
    differences in ascending position order, entry -1 read as 0.  They take
    no part in the repr, equality, hashing or pickling.  A Spline made from
    entries scans its jumps off them.  The builders' elements are made from
    n and their jumps alone, and lay their ``entries`` out the first time
    they are read (see :func:`_spline_from_jumps`): certifying, decomposing
    and multiplying read only the jumps, so they never do.
    """

    __slots__ = ("entries", "_jumps", "_n")
    entries: tuple[int, ...]
    __repr__ = _dataclass_repr

    def __post_init__(self) -> None:
        self.__setstate__([_as_int_tuple(self.entries, "spline entries")])

    # pickles hold the entries alone, in the state slots=True wrote; every
    # construction but the builders' fills all three slots here
    def __getstate__(self) -> list:
        return [self.entries]

    def __setstate__(self, state: list) -> None:
        (entries,) = state
        _set_entries(self, entries)
        _set_jumps(self, _jumps_of(entries))
        _set_n(self, len(entries))

    def __getattr__(self, name: str) -> tuple[int, ...]:
        # reached only when a slot is unset: the entries of a built element,
        # laid out from its jumps on first read and then kept
        if name != "entries":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        entries = _lay_out(self._n, *self._jumps)
        _set_entries(self, entries)
        return entries

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> int:
        return self.entries[index]

    def _match(self, other: "Spline") -> None:
        if self._n != other._n:
            raise DimensionError(f"spline lengths differ: {self._n} vs {other._n}")

    def __add__(self, other: "Spline") -> "Spline":
        if not isinstance(other, Spline):
            return NotImplemented
        self._match(other)
        return _trusted_spline(tuple(map(operator.add, self.entries, other.entries)))

    def __sub__(self, other: "Spline") -> "Spline":
        if not isinstance(other, Spline):
            return NotImplemented
        self._match(other)
        return _trusted_spline(tuple(map(operator.sub, self.entries, other.entries)))

    def __neg__(self) -> "Spline":
        return _trusted_spline(tuple(map(operator.neg, self.entries)))

    def __mul__(self, other: Union["Spline", int]) -> "Spline":
        if isinstance(other, Spline):
            self._match(other)
            return _trusted_spline(tuple(map(operator.mul, self.entries, other.entries)))
        try:
            c = operator.index(other)
        except TypeError:
            return NotImplemented
        return _trusted_spline(tuple(c * a for a in self.entries))

    __rmul__ = __mul__


def _jumps_of(entries: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (positions, values) of the nonzero first differences of
    ``entries``, entry -1 read as 0, in one C-level pass."""
    differences = tuple(map(operator.sub, entries, (0, *entries)))
    return tuple(compress(range(len(differences)), differences)), tuple(filter(None, differences))


# the slots' own setters, which the frozen __setattr__ does not guard
_set_entries = Spline.entries.__set__
_set_jumps = Spline._jumps.__set__
_set_n = Spline._n.__set__


def _trusted_spline(entries: tuple[int, ...]) -> Spline:
    """A Spline over a tuple of ints the library built itself, without
    re-validating every entry."""
    spline = object.__new__(Spline)
    spline.__setstate__([entries])
    return spline


def _spline_from_jumps(n: int, positions: tuple[int, ...], values: tuple[int, ...]) -> Spline:
    """The Spline with n entries whose jumps are (positions, values), in
    O(1): its entries are laid out by :func:`_lay_out` when first read."""
    spline = object.__new__(Spline)
    _set_jumps(spline, (positions, values))
    _set_n(spline, n)
    return spline


def _lay_out(n: int, positions: tuple[int, ...], values: tuple[int, ...]) -> tuple[int, ...]:
    """The n entries whose jumps are (positions, values), laid out run by
    run: O(n) C-level work and O(jumps) Python steps."""
    jumps = zip(positions, values)
    start, h = next(jumps, (n, 0))
    entries = [0] * start
    for p, v in jumps:
        entries += [h] * (p - start)
        h += v
        start = p
    entries += [h] * (n - start)
    return tuple(entries)


GraphLike = Union[EdgeLabeledCycle, EdgeLabeledGraph]
SplineLike = Union[Spline, Sequence[int]]


def labeled_edges(graph: GraphLike) -> list[tuple[int, int, int, int]]:
    """All edges of a cycle or graph as (index, u, v, label), 1-based."""
    if isinstance(graph, EdgeLabeledCycle):
        return list(graph.edges())
    return [(i, u, v, lab) for i, (u, v, lab) in enumerate(graph.edges, start=1)]


def vertex_count(graph: GraphLike) -> int:
    return graph.n if isinstance(graph, EdgeLabeledCycle) else graph.vertex_count


def _as_spline(labels: SplineLike) -> Spline:
    """``labels`` itself if it is a Spline, else a Spline of its entries."""
    return labels if isinstance(labels, Spline) else _trusted_spline(_as_int_tuple(labels, "vertex labels"))


@dataclass(frozen=True)
class EdgeViolation:
    """One failed edge congruence: the endpoint values disagree mod the label."""

    edge: int
    u: int
    v: int
    label: int
    value_u: int
    value_v: int
    __repr__ = _dataclass_repr

    def describe(self) -> str:
        label, value_u, value_v = map(_int_text, (self.label, self.value_u, self.value_v))
        return (
            f"edge {self.edge} (vertex {self.u} -- vertex {self.v}, label {label}): "
            f"{value_u} and {value_v} differ by {_int_text(self.value_u - self.value_v)}, "
            f"not a multiple of {label}"
        )


@dataclass(frozen=True)
class SplineCheck:
    """Outcome of :func:`is_spline`; truthy exactly when every edge passes."""

    ok: bool
    violations: tuple[EdgeViolation, ...]
    __repr__ = _dataclass_repr

    def __bool__(self) -> bool:
        return self.ok


def _violations(graph: GraphLike, spline: SplineLike, skip: int = 0) -> Iterator[EdgeViolation]:
    """Yield the edges whose congruence fails, in edge order.

    On a cycle the first ``skip`` edges are taken to hold.  Edge p < n joins
    vertices p and p + 1, so it holds exactly when the jump at 0-based
    position p, if any, is divisible by its label.  Edge n wraps from vertex
    n to vertex 1 and is reduced last: entry 1 is the jump at position 0, or
    0, and entry n the sum of the jumps.  Only the jumps are read, and the
    two entries of a failing edge p < n.  A general graph has every edge
    reduced.
    """
    spline = _as_spline(spline)
    if isinstance(graph, EdgeLabeledCycle):
        labels = graph.labels
        positions, values = spline._jumps
        for p, jump in zip(positions, values):
            if p > skip and jump % labels[p - 1]:
                entries = spline.entries
                yield EdgeViolation(p, p, p + 1, labels[p - 1], entries[p - 1], entries[p])
        n = spline._n
        first = values[0] if positions and not positions[0] else 0
        last = sum(values)
        if (last - first) % labels[n - 1]:
            yield EdgeViolation(n, n, 1, labels[n - 1], last, first)
        return
    entries = spline.entries
    for i, u, v, lab in labeled_edges(graph):
        if (entries[u - 1] - entries[v - 1]) % lab:
            yield EdgeViolation(i, u, v, lab, entries[u - 1], entries[v - 1])


def is_spline(graph: GraphLike, labels: SplineLike) -> SplineCheck:
    """Check every edge congruence, collecting violations instead of failing fast."""
    spline = _as_spline(labels)
    n = vertex_count(graph)
    if len(spline) != n:
        raise DimensionError(f"expected {n} vertex labels, got {len(spline)}")
    violations = tuple(_violations(graph, spline))
    return SplineCheck(not violations, violations)


def trivial_spline(n: int) -> Spline:
    """The all-ones labeling, a spline on every cycle with n vertices."""
    if n < 3:
        raise ValueError(f"cycles have at least 3 vertices, got {n}")
    return _spline_from_jumps(n, (0,), (1,))


def add(a: Spline, b: Spline) -> Spline:
    """Vertex-wise sum; splines on a common graph are closed under this."""
    return a + b


def scalar_mul(c: int, a: Spline) -> Spline:
    """Integer multiple of a spline."""
    return a * c


def pointwise_mul(a: Spline, b: Spline) -> Spline:
    """Vertex-wise product; splines on a common graph are closed under this."""
    return a * b


def leading_zeros(s: SplineLike) -> int:
    """Number of zero entries before the first nonzero one (n for the zero spline)."""
    spline = _as_spline(s)
    positions = spline._jumps[0]
    return positions[0] if positions else len(spline)


def _check_flow_up_family(
    members: Sequence[SplineLike], n: int, noun: str, graph: GraphLike | None = None
) -> tuple[Spline, ...]:
    """The members as Splines; raises :class:`BasisStructureError` naming the
    first ``noun`` that breaks the flow-up shape: n members of n entries, member
    k with exactly k leading zeros and, given a graph, a spline on it.

    Member k's leading-zero count is its first jump position.  On a cycle,
    its congruences are tested on edges k..n only (edges 1..n for member
    0): each of edges 1..k-1 joins two of its leading zeros and holds.  Edge
    k is tested at the leading jump and edge n by the end entries its jumps
    give, and only the jumps are read, stopping at the first violation,
    which the message names (see :func:`_violations`).  So a member costs
    O(jumps), whatever n is, and a built element is never laid out.  General
    graphs are checked on every edge.
    """
    family = tuple(map(_as_spline, members))
    if len(family) != n:
        raise BasisStructureError(f"expected {n} {noun}s, got {len(family)}")
    for k, member in enumerate(family):
        if len(member) != n:
            raise BasisStructureError(f"{noun} {k} has {len(member)} entries, expected {n}")
        positions = member._jumps[0]
        if not positions or positions[0] != k:
            raise BasisStructureError(
                f"{noun} {k} must have exactly {k} leading zeros, found {leading_zeros(member)}"
            )
        if graph is not None:
            violation = next(_violations(graph, member, max(k - 1, 0)), None)
            if violation is not None:
                raise BasisStructureError(f"{noun} {k} is not a spline: {violation.describe()}")
    return family
