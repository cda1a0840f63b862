"""The closed-form fast paths agree with straightforward reference versions.

Each reference is written out here from the definitions, so a change to
the library's shared step table, trusted constructors or vectorized checks
cannot move both sides at once.
"""

import copy
import dataclasses
import functools
import math
import pickle
import sys
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    egcd,
    reference_chain_element,
    reference_check_basis,
    reference_cycle_flow_up,
    reference_decompose,
    reference_graph_splines,
    reference_product_terms,
    reference_reconstruct,
)
from cyclesplines import (
    BasisCheck,
    BasisDefect,
    BasisStructureError,
    EdgeLabeledCycle,
    EdgeLabeledGraph,
    EdgeViolation,
    EnumerationBudget,
    FlowUpBasis,
    KingPreconditionError,
    NotInSpanError,
    NotInvertibleError,
    ProductDecomposition,
    Spline,
    SplineCheck,
    brute_force_smallest,
    check_basis_by_definition,
    check_flow_up_basis,
    decompose,
    default_budget,
    enumerate_flow_up_splines,
    is_spline,
    king_basis,
    king_product,
    labeled_edges,
    mod_inverse,
    product_in_basis,
    reconstruct,
    smallest_basis,
    smallest_class_bound,
    smallest_flow_up_class,
    smallest_leading_entry,
    solve_congruence_pair,
    triangulation_basis,
    triangulation_spline,
    trivial_spline,
)
from cyclesplines import ring_algebra, spline_core
from cyclesplines.oracle import _iter_cycle_splines

small_labels = st.lists(st.integers(min_value=1, max_value=30), min_size=3, max_size=40)
# runs of 1s and shared factors make the pinned reset (a // g == 1) common
ones_and_divisors = st.lists(st.sampled_from([1, 1, 1, 2, 3, 4, 6, 12]), min_size=3, max_size=40)
all_equal = st.builds(
    lambda label, n: [label] * n,
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=3, max_value=40),
)
huge_labels = st.lists(
    st.integers(min_value=10**29, max_value=10**30 - 1), min_size=3, max_size=12
)
cycle_labels = st.one_of(small_labels, ones_and_divisors, all_equal, huge_labels)


def reference_pair(y, a, b):
    """The pinned representative, from egcd, as the library defines it."""
    g = math.gcd(a, b)
    assert y % g == 0
    if a // g == 1:
        return b
    _, s, _ = egcd(b // g, a // g)
    return y * (b // g) * (s % (a // g))


def reference_chain(cycle, k, solve):
    """Element k of the triangulation basis, one paired congruence per entry."""
    n = cycle.n
    if k == 0:
        return (1,) * n
    h = smallest_leading_entry(cycle, k)
    entries = [0] * k + [h]
    for i in range(k + 2, n + 1):
        h = solve(h, cycle.label(i - 1), cycle.suffix_gcd(i))
        entries.append(h)
    return tuple(entries)


@given(cycle_labels)
def test_triangulation_basis_matches_reference_chain(labels):
    cycle = EdgeLabeledCycle(tuple(labels))
    basis = triangulation_basis(cycle)
    for k, element in enumerate(basis):
        assert element.entries == reference_chain(cycle, k, solve_congruence_pair)
        assert element.entries == reference_chain(cycle, k, reference_pair)
        assert triangulation_spline(cycle, k) == element
        assert all(type(e) is int for e in element.entries)


@given(cycle_labels, st.data())
def test_cycle_is_spline_matches_edge_walk(labels, data):
    cycle = EdgeLabeledCycle(tuple(labels))
    n = cycle.n
    # a spline, perturbed at a few vertices, so some draws pass and some fail
    coefficients = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    entries = list(reconstruct(coefficients, triangulation_basis(cycle)).entries)
    for vertex in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        entries[vertex] += data.draw(st.integers(-40, 40))
    violations = tuple(
        EdgeViolation(i, u, v, lab, entries[u - 1], entries[v - 1])
        for i, u, v, lab in labeled_edges(cycle)
        if (entries[u - 1] - entries[v - 1]) % lab != 0
    )
    expected = SplineCheck(not violations, violations)
    assert is_spline(cycle, entries) == expected
    assert is_spline(cycle.as_graph(), entries) == expected


@given(
    st.integers(min_value=-(10**40), max_value=10**40),
    st.one_of(
        st.integers(min_value=1, max_value=240),
        st.integers(min_value=10**29, max_value=10**30),
    ),
)
def test_mod_inverse_matches_egcd_reference(a, m):
    if m == 1:
        assert mod_inverse(a, m) == 0
        return
    g, s, _ = egcd(a, m)
    if g != 1:
        with pytest.raises(NotInvertibleError) as info:
            mod_inverse(a, m)
        assert str(info.value) == f"{a} is not invertible modulo {m}: gcd is {g}"
        return
    assert mod_inverse(a, m) == s % m


def test_mod_inverse_collapsed_and_non_invertible_cases():
    assert mod_inverse(0, 1) == mod_inverse(12, 1) == mod_inverse(-7, 1) == 0
    with pytest.raises(NotInvertibleError, match="gcd is 5"):
        mod_inverse(0, 5)
    with pytest.raises(NotInvertibleError, match="gcd is 3"):
        mod_inverse(-6, 9)


@pytest.mark.parametrize("bad", [2.0, "2"])
def test_checkers_still_validate_plain_lists(bad):
    cycle = EdgeLabeledCycle((2, 5, 3))
    candidates = [list(e) for e in triangulation_basis(cycle)]
    candidates[2][2] = bad
    with pytest.raises(TypeError, match="vertex labels must be integers"):
        check_flow_up_basis(cycle, candidates)
    with pytest.raises(TypeError, match="vertex labels must be integers"):
        check_basis_by_definition(cycle, candidates)


def test_shape_errors_keep_their_messages():
    cycle = EdgeLabeledCycle((2, 5, 3))
    good = list(triangulation_basis(cycle))
    cases = [
        (good[:2], "expected 3 {}s, got 2"),
        ([good[0], Spline((0, 2)), good[2]], "{} 1 has 2 entries, expected 3"),
        ([good[0], good[2], good[1]], "{} 1 must have exactly 1 leading zeros, found 2"),
    ]
    for members, text in cases:
        with pytest.raises(BasisStructureError) as info:
            FlowUpBasis(cycle, tuple(members))
        assert str(info.value) == text.format("element")
        for check in (check_flow_up_basis, check_basis_by_definition):
            with pytest.raises(BasisStructureError) as info:
                check(cycle, members)
            assert str(info.value) == text.format("candidate")
    not_spline = [good[0], Spline((0, 2, 13)), good[2]]
    for check in (check_flow_up_basis, check_basis_by_definition):
        with pytest.raises(BasisStructureError) as info:
            check(cycle, not_spline)
        assert str(info.value) == (
            "candidate 1 is not a spline: edge 2 (vertex 2 -- vertex 3, label 5): "
            "2 and 13 differ by -11, not a multiple of 5"
        )


def reference_certify(cycle, candidates):
    """check_flow_up_basis's verdict from the definitions: the per-edge walk
    on every edge of every member, then the leading entries."""
    for k, member in enumerate(candidates):
        entries = tuple(member)
        for i, u, v, lab in labeled_edges(cycle):
            if (entries[u - 1] - entries[v - 1]) % lab != 0:
                first = EdgeViolation(i, u, v, lab, entries[u - 1], entries[v - 1])
                raise BasisStructureError(f"candidate {k} is not a spline: {first.describe()}")
    ones = tuple(candidates[0])
    return (all(e == 1 for e in ones) or all(e == -1 for e in ones)) and all(
        abs(candidates[k][k]) == smallest_leading_entry(cycle, k) for k in range(1, cycle.n)
    )


def certification_outcome(check, graph, candidates):
    try:
        return bool(check(graph, candidates))
    except BasisStructureError as exc:
        return str(exc)


@given(cycle_labels, st.data())
def test_tail_certification_reports_the_first_violation(labels, data):
    n = len(labels)
    k = data.draw(st.sampled_from([0, 1, n - 1]))
    first = max(k, 1)
    # the edge the perturbation breaks: edge k (edge 1 when k = 0), a middle
    # edge strictly inside the tail, or the wrap edge n
    edge = data.draw(st.sampled_from([first, n] + list(range(first + 1, n))))
    # perturb the edge's vertex other than vertex 1; label the other edge at
    # that vertex 1 so that only the chosen edge breaks
    vertex, other = (edge + 1, edge + 1) if edge < n else (n, n - 1)
    labels = list(labels)
    labels[edge - 1] = max(labels[edge - 1], 2)
    labels[other - 1] = 1
    cycle = EdgeLabeledCycle(tuple(labels))
    candidates = list(triangulation_basis(cycle))
    assert reference_certify(cycle, candidates) is True
    assert check_flow_up_basis(cycle, candidates)

    entries = list(candidates[k].entries)
    entries[vertex - 1] += 1
    candidates[k] = Spline(tuple(entries))
    with pytest.raises(BasisStructureError) as info:
        reference_certify(cycle, candidates)
    text = str(info.value)
    assert text.startswith(f"candidate {k} is not a spline: edge {edge} (")
    for check, graph in [
        (check_flow_up_basis, cycle),
        (check_basis_by_definition, cycle),
        (check_basis_by_definition, cycle.as_graph()),
    ]:
        assert certification_outcome(check, graph, candidates) == text


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=3, max_size=4),
    st.sampled_from([triangulation_basis, smallest_basis, king_basis]),
    st.data(),
)
def test_tail_certification_verdicts_match_reference(labels, builder, data):
    if builder is king_basis and math.gcd(labels[-2], labels[-1]) != 1:
        labels = labels[:-1] + [1]
    cycle = EdgeLabeledCycle(tuple(labels))
    n = cycle.n
    candidates = list(builder(cycle))
    if data.draw(st.booleans()):
        k = data.draw(st.sampled_from([0, 1, n - 1]))
        candidates[k] = candidates[k] * 2
    verdict = reference_certify(cycle, candidates)
    assert bool(check_flow_up_basis(cycle, candidates)) == verdict
    assert check_basis_by_definition(cycle, candidates) == verdict


@st.composite
def run_structured_tails(draw):
    """(entries, labels): runs over a few recurring values, some entries an
    equal but distinct copy of a big int, with run lengths from one entry
    per run (every entry changes) to long runs."""
    values = draw(
        st.lists(st.sampled_from([0, 1, -1, 2, 6, 12, 10**30, 12 * 10**30]), min_size=1, max_size=3)
    )
    longest = draw(st.sampled_from([1, 2, 12]))
    runs = draw(
        st.lists(
            st.tuples(st.sampled_from(values), st.integers(min_value=1, max_value=longest)),
            min_size=3,
            max_size=40,
        )
    )
    entries = [value for value, length in runs for _ in range(length)]
    n = len(entries)
    copies = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    entries = tuple(int(str(e)) if c else e for e, c in zip(entries, copies))
    labels = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3, 4, 6, 12]), min_size=n, max_size=n))
    return entries, tuple(labels)


@given(run_structured_tails())
def test_tail_edge_test_matches_the_per_edge_walk(tail):
    entries, labels = tail
    cycle = EdgeLabeledCycle(labels)
    n = len(entries)
    for start in range(1, n + 1):
        expected = [
            EdgeViolation(i, i, i % n + 1, labels[i - 1], entries[i - 1], entries[i % n])
            for i in range(start, n + 1)
            if (entries[i - 1] - entries[i % n]) % labels[i - 1]
        ]
        assert list(spline_core._violations(cycle, entries, start - 1)) == expected
        assert list(spline_core._violations(cycle, Spline(entries), start - 1)) == expected


def test_cycle_certification_makes_no_is_spline_call(monkeypatch):
    cycle = EdgeLabeledCycle(tuple(i % 29 + 1 for i in range(200)))
    failing = list(triangulation_basis(cycle))
    failing[7] = failing[7] + Spline((0,) * 150 + (1,) * 50)
    first = is_spline(cycle.as_graph(), failing[7]).violations[0]

    def refuse(graph, labels):
        raise AssertionError("certification walked a whole candidate")

    monkeypatch.setattr(spline_core, "is_spline", refuse)
    assert check_flow_up_basis(cycle, list(triangulation_basis(cycle)))
    with pytest.raises(BasisStructureError) as info:
        check_flow_up_basis(cycle, failing)
    assert str(info.value) == f"candidate 7 is not a spline: {first.describe()}"


def test_general_graph_reports_its_first_violation():
    # a 4-cycle with its edges listed out of order: edge 1 joins vertices 3
    # and 4, so a tail starting at edge k = 2 would miss it
    graph = EdgeLabeledGraph(4, ((3, 4, 3), (1, 2, 2), (2, 3, 5), (4, 1, 7)))
    cycle = EdgeLabeledCycle((2, 5, 3, 7))
    candidates = list(triangulation_basis(cycle))
    assert check_basis_by_definition(graph, candidates)
    candidates[2] = Spline((0, 0, 1, 2))
    with pytest.raises(BasisStructureError) as info:
        check_basis_by_definition(graph, candidates)
    assert str(info.value) == (
        "candidate 2 is not a spline: edge 1 (vertex 3 -- vertex 4, label 3): "
        "1 and 2 differ by -1, not a multiple of 3"
    )


@given(st.one_of(small_labels, huge_labels))
def test_king_product_matches_built_basis(labels):
    # make the tail coprime; a = 1 exercises the collapsed inverse
    labels = labels[:-1] + [1] if math.gcd(labels[-2], labels[-1]) != 1 else labels
    cycle = EdgeLabeledCycle(tuple(labels))
    basis = king_basis(cycle)
    n = cycle.n
    for i in range(n):
        for j in range(n):
            assert king_product(cycle, i, j) == product_in_basis(basis, i, j)


def test_king_product_builds_no_basis(monkeypatch):
    def refuse(cycle):
        raise AssertionError("king_product built a basis")

    monkeypatch.setattr(ring_algebra, "king_basis", refuse)
    cycle = EdgeLabeledCycle((3, 4, 8, 2, 5))
    assert king_product(cycle, 1, 3).terms == ((3, 3), (4, 48))


def test_king_product_errors_unchanged():
    with pytest.raises(KingPreconditionError, match=r"gcd\(6, 4\) = 2"):
        king_product(EdgeLabeledCycle((3, 6, 4)), 0, 9)  # precondition comes first
    cycle = EdgeLabeledCycle((3, 4, 8, 2, 5))
    with pytest.raises(IndexError, match=r"indices must be in \[0, 4\], got \(0, 5\)"):
        king_product(cycle, 0, 5)


def test_reconstruct_still_rejects_non_integer_coefficients():
    basis = triangulation_basis(EdgeLabeledCycle((2, 5, 3)))
    with pytest.raises(TypeError):
        reconstruct([0, 0.5, 0], basis)
    with pytest.raises(TypeError):
        reconstruct([1, 0, 2.0], basis)


# ----------------------------------------------- sparse peeling vs dense loops


def dense_decompose(entries, basis):
    """decompose as a front-to-back loop over every position."""
    work = list(entries)
    coefficients = []
    for k, element in enumerate(basis.elements):
        lead = element.entries[k]
        value = work[k]
        if value % lead != 0:
            raise NotInSpanError(
                f"entry {value} at position {k + 1} is not a multiple of the "
                f"leading entry {lead} of basis element {k}"
            )
        c = value // lead
        coefficients.append(c)
        if c:
            work[k:] = [w - c * e for w, e in zip(work[k:], element.entries[k:])]
    if any(work):
        raise NotInSpanError("nonzero remainder after peeling every basis element")
    return tuple(coefficients)


def dense_reconstruct(coefficients, basis):
    """reconstruct as a loop over every element."""
    total = [0] * len(basis)
    for k, (c, element) in enumerate(zip(coefficients, basis.elements)):
        if c:
            total[k:] = [t + c * e for t, e in zip(total[k:], element.entries[k:])]
    return tuple(total)


def decompose_outcome(decomposer, entries, basis):
    try:
        return decomposer(entries, basis)
    except NotInSpanError as exc:
        return str(exc)


@st.composite
def bases_and_coefficients(draw):
    """A triangulation or king basis on a drawn cycle and a coefficient
    vector that is mostly zeros (as in a product) or dense."""
    labels = draw(cycle_labels)
    kind = draw(st.sampled_from(["triangulation", "king"]))
    if kind == "king" and math.gcd(labels[-2], labels[-1]) != 1:
        labels = labels[:-1] + [1]
    cycle = EdgeLabeledCycle(tuple(labels))
    basis = triangulation_basis(cycle) if kind == "triangulation" else king_basis(cycle)
    n = cycle.n
    if draw(st.booleans()):
        coefficients = [0] * n
        for k in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            coefficients[k] = draw(st.integers(-50, 50))
    else:
        coefficients = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    return basis, coefficients


@given(bases_and_coefficients(), st.data())
def test_sparse_peeling_matches_dense_loops(basis_and_coefficients, data):
    basis, coefficients = basis_and_coefficients
    n = len(basis)
    entries = dense_reconstruct(coefficients, basis)
    assert reconstruct(coefficients, basis).entries == entries
    assert decompose(entries, basis) == dense_decompose(entries, basis) == tuple(coefficients)
    # a non-spline: the same error text, at the same position, on both sides
    broken = list(entries)
    for vertex in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
        broken[vertex] += data.draw(st.integers(-40, 40))
    assert decompose_outcome(decompose, broken, basis) == decompose_outcome(
        dense_decompose, broken, basis
    )
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    product = tuple(a * b for a, b in zip(basis[i].entries, basis[j].entries))
    dense = dense_decompose(product, basis)
    cell = product_in_basis(basis, i, j)
    assert (cell.i, cell.j) == (min(i, j), max(i, j))
    assert cell.terms == tuple((k, c) for k, c in enumerate(dense) if c)


def test_reconstruct_skips_float_zero_coefficients():
    # 0.5 and 2.0 are still rejected: test_reconstruct_still_rejects_non_integer_coefficients
    basis = triangulation_basis(EdgeLabeledCycle((2, 5, 3)))
    assert reconstruct([1, 0.0, 1], basis) == reconstruct([1, 0, 1], basis)


# ------------------------------------ first differences vs the dense peel

FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def prime_quotients(n):
    """label(i) = P / p_i with P the product of the first n primes: every
    chain multiplier exceeds 1, so every triangulation entry is a jump."""
    product = math.prod(FIRST_PRIMES[:n])
    return [product // p for p in FIRST_PRIMES[:n]]


jump_labels = st.one_of(
    st.lists(st.integers(min_value=1, max_value=30), min_size=3, max_size=12),
    st.lists(st.integers(min_value=10**29, max_value=10**30 - 1), min_size=3, max_size=12),
    st.integers(min_value=3, max_value=12).map(prime_quotients),
)
BUILDERS = {"triangulation": triangulation_basis, "king": king_basis, "smallest": smallest_basis}


@st.composite
def bases_of_every_kind(draw):
    """A triangulation, king, smallest or custom basis on drawn labels; the
    custom one is a triangulation or smallest basis with an element negated."""
    labels = draw(jump_labels)
    kind = draw(st.sampled_from(["triangulation", "king", "smallest", "custom"]))
    if kind == "king" and math.gcd(labels[-2], labels[-1]) != 1:
        labels = labels[:-1] + [1]
    cycle = EdgeLabeledCycle(tuple(labels))
    if kind != "custom":
        return BUILDERS[kind](cycle)
    elements = list(BUILDERS[draw(st.sampled_from(["triangulation", "smallest"]))](cycle))
    k = draw(st.integers(0, cycle.n - 1))
    elements[k] = -elements[k]
    return FlowUpBasis(cycle, tuple(elements))


@given(bases_of_every_kind())
def test_jump_prefix_sums_reproduce_every_element(basis):
    n = len(basis)
    for k, element in enumerate(basis):
        positions, values = basis._jumps[k]
        assert positions[0] == k and list(positions) == sorted(set(positions))
        assert all(values)
        differences = [0] * n
        for p, v in zip(positions, values):
            differences[p] = v
        assert tuple(accumulate(differences)) == element.entries


def laid_out(spline):
    """Whether the entries slot is set, read past the layout-on-read hook."""
    try:
        Spline.entries.__get__(spline)
    except AttributeError:
        return False
    return True


def lazy_twin(n, jumps):
    return spline_core._spline_from_jumps(n, *jumps)


def pickle_round_trip(spline):
    return pickle.loads(pickle.dumps(spline))


@given(bases_of_every_kind())
def test_lazily_laid_out_elements_match_the_per_entry_reference(basis):
    n = len(basis)
    # a custom basis holds one negated element, made from entries
    fresh = basis.kind != "custom"
    for k, element in enumerate(basis):
        jumps = basis._jumps[k]
        # entry p sums the jumps at positions up to p, one entry at a time
        reference = tuple(sum(v for q, v in zip(*jumps) if q <= p) for p in range(n))
        assert len(element) == n
        assert not (fresh and laid_out(element))
        # the first read of a fresh element is the pickling itself
        first = pickle.dumps(element)
        assert laid_out(element) and element.entries == reference
        assert pickle.dumps(element) == first == pickle.dumps(Spline(reference))
        assert element == Spline(reference) and hash(element) == hash(Spline(reference))
        assert repr(element) == repr(Spline(reference))
        for make_twin in (copy.copy, copy.deepcopy, dataclasses.replace, pickle_round_trip):
            lazy = lazy_twin(n, jumps)
            twin = make_twin(lazy)
            assert type(twin) is Spline and laid_out(twin)
            assert twin.entries == lazy.entries == reference
            assert twin._jumps == jumps and len(twin) == n
            assert twin == lazy and hash(twin) == hash(lazy)
        with pytest.raises(AttributeError, match="'Spline' object has no attribute 'missing'"):
            lazy_twin(n, jumps).missing


@given(bases_of_every_kind(), st.data())
def test_first_differences_match_the_dense_peel(basis, data):
    n = len(basis)
    coefficient = st.integers(-50, 50) | st.integers(-(10**30), 10**30)
    if data.draw(st.booleans()):
        coefficients = [0] * n
        for k in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
            coefficients[k] = data.draw(coefficient)
    else:
        coefficients = data.draw(st.lists(coefficient, min_size=n, max_size=n))
    entries = reference_reconstruct(coefficients, basis)
    assert reconstruct(coefficients, basis).entries == entries
    assert decompose(entries, basis) == reference_decompose(entries, basis) == tuple(coefficients)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    cell = product_in_basis(basis, i, j)
    assert (cell.i, cell.j) == (min(i, j), max(i, j))
    assert cell.terms == reference_product_terms(basis, i, j)


@given(bases_of_every_kind(), st.data())
def test_product_differences_sit_on_the_jumps_of_both_factors(basis, data):
    n = len(basis)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    product = tuple(a * b for a, b in zip(basis[i].entries, basis[j].entries))
    for first, second in ((i, j), (j, i)):
        differences = ring_algebra._product_differences(basis, first, second)
        assert list(differences) == sorted(differences)
        assert set(differences) <= {*basis._jumps[i][0], *basis._jumps[j][0]}
        assert all(p >= max(i, j) for p in differences)
        dense = [0] * n
        for p, v in differences.items():
            dense[p] = v
        assert tuple(accumulate(dense)) == product


@given(bases_of_every_kind(), st.data())
def test_not_in_span_text_matches_the_dense_peel(basis, data):
    n = len(basis)
    coefficients = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    broken = list(reference_reconstruct(coefficients, basis))
    for vertex in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
        broken[vertex] += data.draw(st.integers(-40, 40))
    assert decompose_outcome(decompose, broken, basis) == decompose_outcome(
        reference_decompose, broken, basis
    )


def reference_king_element(cycle, i):
    """Element i of the king basis, one entry at a time from its closed form."""
    n = cycle.n
    a, b = cycle.labels[-2:]
    inv = egcd(b, a)[1] % a
    if i == 0:
        return (1,) * n
    li = cycle.label(i)
    last = a * b if i == n - 1 else li * b * inv
    return tuple(0 if p < i else last if p == n - 1 else li for p in range(n))


@given(
    st.one_of(small_labels, ones_and_divisors, huge_labels, st.integers(3, 12).map(prime_quotients))
)
def test_builders_hand_over_the_jumps_of_the_per_entry_elements(labels):
    cycle = EdgeLabeledCycle(tuple(labels))
    # a last label of 1 keeps the king precondition and makes b * inv == 1
    king_cycle = cycle if math.gcd(*labels[-2:]) == 1 else EdgeLabeledCycle((*labels[:-1], 1))
    expected = {
        "triangulation": lambda k: reference_chain_element(cycle, k, least=False),
        "smallest": lambda k: reference_chain_element(cycle, k, least=True),
        "king": lambda k: reference_king_element(king_cycle, k),
    }
    for kind, build in BUILDERS.items():
        basis = build(king_cycle if kind == "king" else cycle)
        for k, element in enumerate(basis):
            assert element.entries == expected[kind](k)
        # the builders' jumps are what a basis of bare elements finds by scanning
        assert basis._jumps == FlowUpBasis(basis.cycle, [Spline(e.entries) for e in basis])._jumps
    for k in range(1, cycle.n):
        assert triangulation_spline(cycle, k).entries == expected["triangulation"](k)
        assert smallest_flow_up_class(cycle, k).entries == expected["smallest"](k)


def reference_jumps(entries):
    """(positions, values) at each position p where entries[p] differs from
    entries[p - 1], or from 0 at p = 0, one entry at a time."""
    positions, values = [], []
    previous = 0
    for p, entry in enumerate(entries):
        if entry != previous:
            positions.append(p)
            values.append(entry - previous)
        previous = entry
    return tuple(positions), tuple(values)


@st.composite
def entry_pairs(draw):
    """Two entry vectors of one length, drawn from a few values up to 10**40
    and 0, so that runs of equal entries are common."""
    pool = draw(st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=3)) + [0]
    n = draw(st.integers(3, 30))
    vector = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    return draw(vector), draw(vector)


@given(entry_pairs(), st.integers(-(10**40), 10**40), jump_labels)
def test_every_spline_carries_the_jumps_of_its_entries(pair, c, labels):
    a, b = Spline(tuple(pair[0])), Spline(pair[1])
    splines = [a, b, a + b, a - b, -a, a * c, c * a, a * b, trivial_spline(len(a))]
    cycle = EdgeLabeledCycle(tuple(labels))
    king_cycle = cycle if math.gcd(*labels[-2:]) == 1 else EdgeLabeledCycle((*labels[:-1], 1))
    for kind, build in BUILDERS.items():
        splines += build(king_cycle if kind == "king" else cycle)
    built = splines[-1]
    splines += [
        pickle.loads(pickle.dumps(built)),
        copy.deepcopy(built),
        copy.copy(built),
        dataclasses.replace(built),
    ]
    for spline in splines:
        assert spline._jumps == reference_jumps(spline.entries)


# ------------------------------------ the cycle search vs the former two

oracle_cycles = st.lists(st.integers(min_value=1, max_value=8), min_size=3, max_size=5)
# enough tuples to cover many leaf walks; the label-product box of a
# five-cycle holds far more than can be listed
PREFIX = 300


def prefix(tuples, count=PREFIX):
    return list(islice(tuples, count))


@settings(deadline=None)
@given(oracle_cycles)
def test_cycle_enumeration_matches_former_enumerators(labels):
    cycle = EdgeLabeledCycle(tuple(labels))
    tight = EnumerationBudget(smallest_class_bound(cycle))
    product = default_budget(cycle)
    for k in range(1, cycle.n):
        found = [s.entries for s in enumerate_flow_up_splines(cycle, k, tight)]
        assert found == list(reference_cycle_flow_up(cycle, k, tight))
        assert found == list(reference_graph_splines(cycle.as_graph(), k, tight))
        wide = prefix(_iter_cycle_splines(cycle, k, product))
        assert wide == prefix(reference_cycle_flow_up(cycle, k, product))
        assert wide == prefix(reference_graph_splines(cycle.as_graph(), k, product))
        if cycle.n == 3:
            assert [s.entries for s in enumerate_flow_up_splines(cycle, k)] == list(
                reference_cycle_flow_up(cycle, k, product)
            )
        best = min((t for t in found if 0 not in t[k:]), default=None)
        assert brute_force_smallest(cycle, k).entries == best


@settings(deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10), min_size=3, max_size=5), st.data())
def test_basis_verdicts_match_former_enumerator(labels, data):
    cycle = EdgeLabeledCycle(tuple(labels))
    box = EnumerationBudget(smallest_class_bound(cycle))
    basis = list(triangulation_basis(cycle))
    doubled = list(basis)
    k = data.draw(st.integers(1, cycle.n - 1))
    doubled[k] = doubled[k] * 2
    for candidates in (basis, doubled):
        verdict = reference_check_basis(cycle.as_graph(), candidates, box)
        assert check_basis_by_definition(cycle, candidates) == verdict
    assert check_basis_by_definition(cycle, basis)
    assert not check_basis_by_definition(cycle, doubled)


@st.composite
def product_capped_graphs(draw):
    """Graphs on two to four vertices whose label product is at most 24, so
    that the product box can be searched in full."""
    n = draw(st.integers(2, 4))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    edges, product = [], 1
    for (u, v), lab in draw(st.lists(st.tuples(pairs, st.integers(1, 6)), max_size=6)):
        if product * lab <= 24:
            edges.append((u, v, lab))
            product *= lab
    return EdgeLabeledGraph(n, tuple(edges))


@settings(deadline=None)
@given(product_capped_graphs(), st.data())
def test_label_lcm_box_gives_the_label_product_verdict(graph, data):
    # candidate k reaches the least positive entry at vertex k + 1 among the
    # splines with k leading zeros in the product box, which holds them all
    n = graph.vertex_count
    product = default_budget(graph)
    basis = [(1,) * n]
    for k in range(1, n):
        found = (t for t in reference_graph_splines(graph, k, product) if t[k] > 0)
        basis.append(min(found, key=lambda t: t[k]))
    doubled = list(basis)
    k = data.draw(st.integers(1, n - 1))
    doubled[k] = tuple(2 * e for e in doubled[k])
    for candidates, verdict in ((basis, True), (doubled, False)):
        assert reference_check_basis(graph, candidates, product) == verdict
        assert check_basis_by_definition(graph, candidates) == verdict


# ------------------------------------------------------ reprs at any width


@functools.cache
def default_repr_twin(cls):
    """A dataclass with cls's name and fields that keeps the repr
    @dataclass writes."""
    names = [f.name for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__qualname__, names, frozen=True)


def default_repr(obj):
    twin = default_repr_twin(type(obj))
    return repr(twin(*(getattr(obj, f.name) for f in dataclasses.fields(twin))))


def package_dataclasses(entries, labels, text):
    cycle = EdgeLabeledCycle(tuple(labels))
    spline = Spline(tuple(entries))
    violation = EdgeViolation(1, 1, 2, labels[0], entries[0], entries[1])
    defect = BasisDefect(len(entries), text, entries[0], entries[-1])
    return [
        cycle,
        cycle.as_graph(),
        spline,
        violation,
        SplineCheck(False, (violation,)),
        SplineCheck(True, ()),
        triangulation_basis(cycle),
        defect,
        BasisDefect(0, text),
        BasisCheck(False, (defect,)),
        ProductDecomposition(0, 1, tuple(enumerate(entries))),
        ProductDecomposition(0, 1, ((1, entries[0]),)),
        EnumerationBudget(labels[0], labels[-1]),
    ]


@given(
    st.lists(st.integers(-(10**40), 10**40), min_size=2, max_size=6),
    st.lists(st.integers(1, 10**40), min_size=3, max_size=6),
    st.text(max_size=8),
)
def test_repr_matches_default_dataclass_repr(entries, labels, text):
    for obj in package_dataclasses(entries, labels, text):
        assert repr(obj) == default_repr(obj)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str digit limit"
)
@given(st.integers(4301, 4400), st.integers(-5, 5), st.booleans())
def test_repr_past_the_digit_limit(digits, offset, negative):
    limit = sys.get_int_max_str_digits()
    wide = (10 ** (digits - 1) + abs(offset)) * (-1 if negative else 1)
    text = f"{'-' if negative else ''}<{digits}-digit integer>"
    assert repr(EdgeLabeledCycle((abs(wide), 2, 3))) == (
        f"EdgeLabeledCycle(labels=(<{digits}-digit integer>, 2, 3))"
    )
    assert repr(Spline((wide,))) == f"Spline(entries=({text},))"
    assert repr(BasisDefect(1, "x", wide, 1)) == (
        f"BasisDefect(index=1, reason='x', expected={text}, actual=1)"
    )
    assert text in repr(SplineCheck(False, (EdgeViolation(1, 1, 2, 3, wide, 0),)))
    assert sys.get_int_max_str_digits() == limit
