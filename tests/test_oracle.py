import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cycle, reference_graph_splines
from cyclesplines import (
    BasisStructureError,
    BudgetExceededError,
    EdgeLabeledCycle,
    EdgeLabeledGraph,
    EnumerationBudget,
    Spline,
    brute_force_smallest,
    check_basis_by_definition,
    check_flow_up_basis,
    default_budget,
    enumerate_flow_up_splines,
    is_spline,
    king_basis,
    lattice_smallest,
    smallest_basis,
    smallest_class_bound,
    smallest_leading_entry,
    triangulated_graph,
    triangulation_basis,
    triangulation_spline,
    verify_triangulated_extension,
)
from cyclesplines import oracle
from cyclesplines.oracle import _lattice_pivots, _lattice_rows


# --------------------------------------------------------------- budgets


def test_budget_validation():
    EnumerationBudget(1)
    with pytest.raises(ValueError):
        EnumerationBudget(0)
    with pytest.raises(ValueError):
        EnumerationBudget(5, 0)


def test_default_budget_is_label_product():
    assert default_budget(EdgeLabeledCycle((2, 5, 3))).entry_bound == 30
    graph = EdgeLabeledCycle((2, 5, 3)).as_graph()
    assert default_budget(graph).entry_bound == 30


def test_lattice_pivots_on_a_chord_graph_and_without_edges():
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    assert smallest_class_bound(cycle) == 30
    chord = EdgeLabeledGraph(4, ((1, 2, 2), (2, 3, 6), (3, 4, 15), (4, 1, 10), (1, 3, 5)))
    assert _lattice_pivots(chord) == [1, 2, 30, 30]
    # no labels: their lcm is 1 and every pivot is 1
    assert _lattice_pivots(EdgeLabeledGraph(2, ())) == [1, 1]


def test_smallest_class_bound_values():
    assert smallest_class_bound(EdgeLabeledCycle((2, 5, 3))) == 15
    assert smallest_class_bound(EdgeLabeledCycle((2, 6, 15, 10))) == 30


# ----------------------------------------------------------- enumeration


def test_enumerate_flow_up_splines_small_cycle():
    cycle = EdgeLabeledCycle((2, 5, 3))
    found = {s.entries for s in enumerate_flow_up_splines(cycle, 1)}
    assert (0, 0, 0) in found
    assert (0, 2, 12) in found
    assert (0, 0, 15) in found
    assert (0, 8, 3) in found
    for entries in found:
        assert is_spline(cycle, entries).ok
        assert entries[0] == 0
        assert all(0 <= g <= 30 for g in entries)


def test_enumerated_leading_entries_are_multiples_of_minimum(rng):
    for _ in range(15):
        cycle = random_cycle(rng, n_range=(3, 4), label_range=(1, 6))
        for k in range(1, cycle.n):
            m = smallest_leading_entry(cycle, k)
            for s in enumerate_flow_up_splines(cycle, k):
                assert s.entries[k] % m == 0


def test_enumeration_budget_exceeded():
    cycle = EdgeLabeledCycle((2, 5, 3))
    with pytest.raises(BudgetExceededError):
        enumerate_flow_up_splines(cycle, 1, EnumerationBudget(30, 5))


def test_budget_counts_each_walked_value():
    # k = 2 leaves only vertex 3, which walks the class of its label-5 edge,
    # 0, 5, 10, 15, and filters by its label-3 edge: four states, two splines
    cycle = EdgeLabeledCycle((2, 5, 3))
    found = enumerate_flow_up_splines(cycle, 2, EnumerationBudget(15, 4))
    assert [s.entries for s in found] == [(0, 0, 0), (0, 0, 15)]
    with pytest.raises(BudgetExceededError, match="budget of 3 states") as info:
        enumerate_flow_up_splines(cycle, 2, EnumerationBudget(15, 3))
    # the walk that crosses the limit is charged in full
    assert str(info.value).endswith(": 4 charged, entry bound 15")
    assert (info.value.spent, info.value.limit, info.value.entry_bound) == (4, 3, 15)


def test_walks_past_a_machine_word_exceed_the_budget():
    # each search walks a residue class of more than 2**63 - 1 values: the
    # labels derive the box 3 * 10**21; the basis check eliminates, with no budget
    cycle = EdgeLabeledCycle((2, 5, 3 * 10**21))
    with pytest.raises(BudgetExceededError):
        brute_force_smallest(cycle, 1)
    with pytest.raises(BudgetExceededError):
        enumerate_flow_up_splines(cycle, 1, EnumerationBudget(10**21))
    assert check_basis_by_definition(cycle.as_graph(), list(triangulation_basis(cycle)))


def test_long_cycle_exceeds_the_budget_not_the_stack():
    # the first 1000 walks open within 15 769 states, one level deeper each
    cycle = EdgeLabeledCycle(tuple(i % 29 + 1 for i in range(1200)))
    with pytest.raises(BudgetExceededError, match="budget of 20000 states"):
        enumerate_flow_up_splines(cycle, 1, EnumerationBudget(110, 20_000))


def test_enumeration_k_bounds():
    cycle = EdgeLabeledCycle((2, 5, 3))
    for bad in (0, 3):
        with pytest.raises(IndexError):
            enumerate_flow_up_splines(cycle, bad, EnumerationBudget(30))
        with pytest.raises(IndexError, match=rf"k must be in \[1, 2\], got {bad}"):
            brute_force_smallest(cycle, bad)


# -------------------------------------------------------------- smallest


def test_brute_force_smallest_examples():
    cycle = EdgeLabeledCycle((2, 5, 3))
    assert brute_force_smallest(cycle, 1).entries == (0, 2, 12)
    assert brute_force_smallest(cycle, 2).entries == (0, 0, 15)
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    assert brute_force_smallest(cycle, 2).entries == (0, 0, 30, 30)


def test_brute_force_smallest_stops_at_its_first_hit(monkeypatch):
    # k = 1 on 2,5,3 in [0, 15]: vertex 2 walks 0, 2, .., 14 (8 states), then
    # vertex 3 walks 0, 5, 10, 15 after 0 (4) and 2, 7, 12 after 2 (3), where
    # (0, 2, 12) is the first hit; the whole search would charge far more.
    # The state limit is read when the search starts
    cycle = EdgeLabeledCycle((2, 5, 3))
    monkeypatch.setattr(oracle, "DEFAULT_MAX_STATES", 15)
    assert brute_force_smallest(cycle, 1).entries == (0, 2, 12)
    monkeypatch.setattr(oracle, "DEFAULT_MAX_STATES", 14)
    with pytest.raises(BudgetExceededError, match=": 15 charged"):
        brute_force_smallest(cycle, 1)


def test_brute_force_smallest_same_under_product_budget(rng):
    # the tight box must not change the answer: the label-product box of
    # enumerate_flow_up_splines gives the same lexicographic minimum
    for _ in range(25):
        cycle = random_cycle(rng, n_range=(3, 4), label_range=(1, 5))
        for k in range(1, cycle.n):
            wide = (s.entries for s in enumerate_flow_up_splines(cycle, k))
            best = min(t for t in wide if 0 not in t[k:])
            assert brute_force_smallest(cycle, k).entries == best


# --------------------------------------------------------------- chords


def test_triangulated_graph_chords():
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    graph = triangulated_graph(cycle)
    assert graph.vertex_count == 4
    assert set(graph.edges) == {
        (1, 2, 2),
        (2, 3, 6),
        (3, 4, 15),
        (4, 1, 10),
        (1, 3, 5),
    }


def test_triangulated_graph_three_cycle_has_no_chords():
    cycle = EdgeLabeledCycle((2, 5, 3))
    assert len(triangulated_graph(cycle).edges) == 3


def test_verify_triangulated_extension():
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    assert verify_triangulated_extension(cycle, (0, 2, 50, 200))
    assert not verify_triangulated_extension(cycle, (0, 2, 15, 200))


def test_triangulation_splines_satisfy_chords(rng):
    for _ in range(1000):
        cycle = random_cycle(rng, n_range=(3, 8), label_range=(1, 30))
        for k in range(cycle.n):
            h = triangulation_spline(cycle, k)
            assert verify_triangulated_extension(cycle, h)


# ------------------------------------------------------- basis condition


def test_check_basis_by_definition_accepts_constructions():
    cycle = EdgeLabeledCycle((2, 5, 3))
    assert check_basis_by_definition(cycle, list(triangulation_basis(cycle)))
    assert check_basis_by_definition(cycle, list(king_basis(cycle)))
    assert check_basis_by_definition(cycle, list(smallest_basis(cycle)))
    four = EdgeLabeledCycle((2, 6, 15, 10))
    assert check_basis_by_definition(four, list(triangulation_basis(four)))


def test_check_basis_by_definition_rejects_non_minimal_leads():
    cycle = EdgeLabeledCycle((2, 5, 3))
    candidates = [Spline((1, 1, 1)), Spline((0, 4, 24)), Spline((0, 0, 15))]
    assert not check_basis_by_definition(cycle, candidates)


def test_check_basis_by_definition_structure_errors():
    cycle = EdgeLabeledCycle((2, 5, 3))
    basis = list(triangulation_basis(cycle))
    with pytest.raises(BasisStructureError):
        check_basis_by_definition(cycle, basis[:2])
    with pytest.raises(BasisStructureError):
        check_basis_by_definition(cycle, [basis[0], basis[2], basis[1]])
    with pytest.raises(BasisStructureError):
        check_basis_by_definition(cycle, [basis[0], Spline((0, 2, 13)), basis[2]])


def test_check_basis_by_definition_on_plain_graph():
    cycle = EdgeLabeledCycle((2, 5, 3))
    graph = cycle.as_graph()
    assert check_basis_by_definition(graph, list(triangulation_basis(cycle)))


def test_check_basis_by_definition_agrees_with_leading_entry_check(rng):
    for _ in range(25):
        cycle = random_cycle(rng, n_range=(3, 4), label_range=(1, 6))
        candidates = list(triangulation_basis(cycle))
        assert check_basis_by_definition(cycle, candidates) == bool(
            check_flow_up_basis(cycle, candidates)
        )
        doubled = list(candidates)
        doubled[1] = doubled[1] * 2
        assert check_basis_by_definition(cycle, doubled) == bool(
            check_flow_up_basis(cycle, doubled)
        )
        assert not check_basis_by_definition(cycle, doubled)


# ---------------------------------------------------------------- lattice


@settings(deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(1, 40), min_size=3, max_size=50),
        st.integers(3, 50).map(lambda n: [1] * n),
        st.lists(st.integers(10**29, 10**30 - 1), min_size=3, max_size=12),
    )
)
def test_lattice_pivots_are_the_minimal_leading_entries_on_cycles(labels):
    cycle = EdgeLabeledCycle(tuple(labels))
    minimal = [smallest_leading_entry(cycle, k) for k in range(1, cycle.n)]
    assert _lattice_pivots(cycle) == [1, *minimal]


@st.composite
def tiny_graphs(draw):
    """Graphs on one to four vertices whose label product is at most 12, so
    that the product box can be listed in full; parallel edges, label-1
    edges and no edges at all included."""
    n = draw(st.integers(1, 4))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    edges, product = [], 1
    drawn = draw(st.lists(st.tuples(pairs, st.integers(1, 6)), max_size=5 if n > 1 else 0))
    for (u, v), lab in drawn:
        if product * lab <= 12:
            edges.append((u, v, lab))
            product *= lab
    return EdgeLabeledGraph(n, tuple(edges))


@settings(deadline=None)
@given(tiny_graphs())
def test_lattice_pivots_are_the_gcds_of_the_listed_entries_on_graphs(graph):
    # the label-product box holds a spline reaching each minimal entry
    box = default_budget(graph)
    gcds = [
        math.gcd(*(t[k] for t in reference_graph_splines(graph, k, box)))
        for k in range(graph.vertex_count)
    ]
    assert _lattice_pivots(graph) == gcds


def test_lattice_pivots_certify_the_smallest_leading_entries_at_n_1000(rng):
    cycle = random_cycle(rng, n_range=(1000, 1000), label_range=(1, 30))
    minimal = [smallest_leading_entry(cycle, k) for k in range(1, cycle.n)]
    assert _lattice_pivots(cycle) == [1, *minimal]
    basis = list(smallest_basis(cycle))
    assert check_basis_by_definition(cycle, basis)
    basis[500] = basis[500] * 2
    assert not check_basis_by_definition(cycle, basis)


# ------------------------------------------------ smallest off the lattice


def test_lattice_smallest_k_bounds():
    cycle = EdgeLabeledCycle((2, 5, 3))
    for bad in (0, 3, -1):
        with pytest.raises(IndexError, match=rf"k must be in \[1, 2\], got {bad}"):
            lattice_smallest(cycle, bad)
    with pytest.raises(IndexError, match=r"k must be in \[1, 0\], got 1"):
        lattice_smallest(EdgeLabeledGraph(1, ()), 1)


@settings(deadline=None)
@given(st.lists(st.integers(1, 12), min_size=3, max_size=5))
def test_lattice_smallest_is_the_searched_minimum_on_cycles(labels):
    cycle = EdgeLabeledCycle(tuple(labels))
    for k in range(1, cycle.n):
        assert lattice_smallest(cycle, k) == brute_force_smallest(cycle, k)


@settings(deadline=None)
@given(tiny_graphs().filter(lambda graph: graph.vertex_count >= 2))
def test_lattice_smallest_is_the_listed_minimum_on_graphs(graph):
    # reference_graph_splines lists in ascending lexicographic order, so the
    # first tuple with a positive tail is the least
    box = default_budget(graph)
    for k in range(1, graph.vertex_count):
        listed = reference_graph_splines(graph, k, box)
        least = next(t for t in listed if 0 not in t[k:])
        assert lattice_smallest(graph, k).entries == least


def test_lattice_smallest_is_the_smallest_basis_at_n_1000(rng, monkeypatch):
    cycle = random_cycle(rng, n_range=(1000, 1000), label_range=(1, 30))
    # one elimination serves every element
    rows = _lattice_rows(cycle)
    monkeypatch.setattr(oracle, "_lattice_rows", lambda graph: rows)
    found = [lattice_smallest(cycle, k) for k in range(1, cycle.n)]
    assert found == list(smallest_basis(cycle))[1:]
