import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cycle, random_king_cycle
from cyclesplines import (
    BasisStructureError,
    EdgeLabeledCycle,
    FlowUpBasis,
    KingPreconditionError,
    Spline,
    brute_force_smallest,
    check_flow_up_basis,
    is_spline,
    king_basis,
    smallest_basis,
    smallest_class_bound,
    smallest_flow_up_class,
    smallest_leading_entry,
    triangulation_basis,
    triangulation_spline,
)
from cyclesplines import spline_core

desk_labels = st.lists(st.integers(min_value=1, max_value=12), min_size=3, max_size=6)


# ------------------------------------------------------- leading entries


def test_smallest_leading_entry_values():
    cycle = EdgeLabeledCycle((2, 5, 3))
    assert smallest_leading_entry(cycle, 1) == 2
    assert smallest_leading_entry(cycle, 2) == 15
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    assert [smallest_leading_entry(cycle, k) for k in (1, 2, 3)] == [2, 30, 30]


def test_smallest_leading_entry_bounds():
    cycle = EdgeLabeledCycle((2, 5, 3))
    for bad in (0, 3, -1):
        with pytest.raises(IndexError):
            smallest_leading_entry(cycle, bad)


# --------------------------------------------------------- triangulation


def test_triangulation_spline_three_cycle():
    cycle = EdgeLabeledCycle((2, 5, 3))
    assert triangulation_spline(cycle, 0).entries == (1, 1, 1)
    assert triangulation_spline(cycle, 1).entries == (0, 2, 12)
    assert triangulation_spline(cycle, 2).entries == (0, 0, 15)


def test_triangulation_spline_four_cycle():
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    basis = triangulation_basis(cycle)
    assert [e.entries for e in basis] == [
        (1, 1, 1, 1),
        (0, 2, 50, 200),
        (0, 0, 30, 120),
        (0, 0, 0, 30),
    ]
    assert basis.leading_entries() == (1, 2, 30, 30)
    assert basis.kind == "triangulation" and basis.symbol == "H"


def test_triangulation_spline_k_bounds():
    cycle = EdgeLabeledCycle((2, 5, 3))
    for bad in (-1, 3):
        with pytest.raises(IndexError):
            triangulation_spline(cycle, bad)


@settings(max_examples=60)
@given(desk_labels)
def test_triangulation_basis_is_valid_everywhere(labels):
    cycle = EdgeLabeledCycle(tuple(labels))
    basis = triangulation_basis(cycle)
    for element in basis:
        assert is_spline(cycle, element).ok
    assert check_flow_up_basis(cycle, list(basis)).ok


# ------------------------------------------------------------------ king


def test_king_basis_five_cycle():
    basis = king_basis(EdgeLabeledCycle((3, 4, 8, 2, 5)))
    assert [e.entries for e in basis] == [
        (1, 1, 1, 1, 1),
        (0, 3, 3, 3, 15),
        (0, 0, 4, 4, 20),
        (0, 0, 0, 8, 40),
        (0, 0, 0, 0, 10),
    ]
    assert basis.kind == "king" and basis.symbol == "K"


def test_king_basis_requires_coprime_tail():
    with pytest.raises(KingPreconditionError) as info:
        king_basis(EdgeLabeledCycle((2, 6, 4)))
    assert "gcd(6, 4) = 2" in str(info.value)


def test_king_basis_with_unit_label_before_last():
    # inverse modulo 1 is 0, so the middle elements end in 0; still a basis
    cycle = EdgeLabeledCycle((3, 4, 1, 5))
    basis = king_basis(cycle)
    assert basis[1].entries == (0, 3, 3, 0)
    assert basis[3].entries == (0, 0, 0, 5)
    assert check_flow_up_basis(cycle, list(basis)).ok


@settings(max_examples=60)
@given(desk_labels.filter(lambda ls: math.gcd(ls[-2], ls[-1]) == 1))
def test_king_basis_is_valid_when_admissible(labels):
    cycle = EdgeLabeledCycle(tuple(labels))
    basis = king_basis(cycle)
    for element in basis:
        assert is_spline(cycle, element).ok
    assert check_flow_up_basis(cycle, list(basis)).ok


# ------------------------------------------------------- basis structure


def test_flow_up_basis_validation():
    cycle = EdgeLabeledCycle((2, 5, 3))
    good = (Spline((1, 1, 1)), Spline((0, 2, 12)), Spline((0, 0, 15)))
    FlowUpBasis(cycle, good)
    with pytest.raises(BasisStructureError):
        FlowUpBasis(cycle, good[:2])
    with pytest.raises(BasisStructureError):
        FlowUpBasis(cycle, (good[0], good[2], good[1]))
    with pytest.raises(BasisStructureError):
        FlowUpBasis(cycle, (good[0], Spline((0, 2)), good[2]))
    with pytest.raises(ValueError):
        FlowUpBasis(cycle, good, kind="royal")


def test_flow_up_basis_container_protocol():
    basis = triangulation_basis(EdgeLabeledCycle((2, 5, 3)))
    assert len(basis) == 3
    assert basis[1].entries == (0, 2, 12)
    assert [e.entries[0] for e in basis] == [1, 0, 0]


# ---------------------------------------------------------------- checker


def test_check_flow_up_basis_accepts_constructions():
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    assert check_flow_up_basis(cycle, list(triangulation_basis(cycle))).ok
    king_cycle = EdgeLabeledCycle((3, 4, 8, 2, 5))
    assert check_flow_up_basis(king_cycle, list(king_basis(king_cycle))).ok


def test_check_flow_up_basis_accepts_negated_elements():
    cycle = EdgeLabeledCycle((2, 5, 3))
    candidates = [-e for e in triangulation_basis(cycle)]
    assert check_flow_up_basis(cycle, candidates).ok


def test_check_flow_up_basis_flags_non_minimal_leading_entry():
    cycle = EdgeLabeledCycle((2, 5, 3))
    candidates = list(triangulation_basis(cycle))
    candidates[1] = candidates[1] * 3
    check = check_flow_up_basis(cycle, candidates)
    assert not check.ok
    (defect,) = check.defects
    assert defect.index == 1
    assert (defect.expected, defect.actual) == (2, 6)
    assert "element 1" in defect.describe()


def test_check_flow_up_basis_flags_bad_first_element():
    cycle = EdgeLabeledCycle((2, 5, 3))
    candidates = list(triangulation_basis(cycle))
    candidates[0] = candidates[0] * 2
    check = check_flow_up_basis(cycle, candidates)
    assert not check.ok
    assert check.defects[0].index == 0


def test_check_flow_up_basis_structure_errors():
    cycle = EdgeLabeledCycle((2, 5, 3))
    basis = list(triangulation_basis(cycle))
    with pytest.raises(BasisStructureError):
        check_flow_up_basis(cycle, basis[:2])
    with pytest.raises(BasisStructureError):
        check_flow_up_basis(cycle, [basis[0], basis[2], basis[1]])
    with pytest.raises(BasisStructureError):
        # right zero pattern, but edge 2 fails: not a spline
        check_flow_up_basis(cycle, [basis[0], Spline((0, 2, 13)), basis[2]])


# --------------------------------------------------------- smallest class


def test_smallest_flow_up_class_three_cycle():
    cycle = EdgeLabeledCycle((2, 5, 3))
    assert smallest_flow_up_class(cycle, 1).entries == (0, 2, 12)
    assert smallest_flow_up_class(cycle, 2).entries == (0, 0, 15)


def test_smallest_flow_up_class_four_cycle():
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    assert smallest_flow_up_class(cycle, 1).entries == (0, 2, 20, 20)
    assert smallest_flow_up_class(cycle, 2).entries == (0, 0, 30, 30)
    assert smallest_flow_up_class(cycle, 3).entries == (0, 0, 0, 30)


def test_smallest_basis_is_valid():
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    basis = smallest_basis(cycle)
    assert basis.kind == "smallest" and basis.symbol == "G"
    assert basis[0].entries == (1, 1, 1, 1)
    assert check_flow_up_basis(cycle, list(basis)).ok


def test_smallest_class_dominated_by_triangulation(rng):
    # tiny corpus; the acceptance suite covers the full desk-scale sweep
    for _ in range(40):
        cycle = random_cycle(rng, n_range=(3, 5), label_range=(1, 8))
        for k in range(1, cycle.n):
            small = smallest_flow_up_class(cycle, k)
            tri = triangulation_spline(cycle, k)
            assert small.entries[k] == smallest_leading_entry(cycle, k)
            assert all(a <= b for a, b in zip(small, tri))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=3, max_size=5), st.data())
def test_smallest_flow_up_class_matches_brute_force(labels, data):
    cycle = EdgeLabeledCycle(tuple(labels))
    k = data.draw(st.integers(1, cycle.n - 1))
    assert smallest_flow_up_class(cycle, k) == brute_force_smallest(cycle, k)


def test_smallest_flow_up_class_k_bounds():
    cycle = EdgeLabeledCycle((2, 5, 3))
    for bad in (0, 3, -1):
        with pytest.raises(IndexError, match=r"k must be in \[1, 2\]"):
            smallest_flow_up_class(cycle, bad)


def first_primes(count):
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def assert_smallest_below_triangulation(cycle):
    small = smallest_basis(cycle)
    tri = triangulation_basis(cycle)
    assert check_flow_up_basis(cycle, list(small)).ok
    for k in range(1, cycle.n):
        assert all(0 < s <= t for s, t in zip(small[k].entries[k:], tri[k].entries[k:]))
    for k in (1, cycle.n // 2, cycle.n - 1):
        assert small[k] == smallest_flow_up_class(cycle, k)
    # every entry is a least positive solution, so at most its step's lcm
    assert max(max(element) for element in small) <= smallest_class_bound(cycle)


def test_smallest_basis_at_n_1000(rng):
    cycle = random_cycle(rng, n_range=(1000, 1000), label_range=(1, 30))
    assert_smallest_below_triangulation(cycle)


def test_smallest_basis_on_wide_coprime_quotients():
    # label(i) = P / p_i for P the product of the first 80 primes: every
    # chain step has mult > 1, so the pinned triangulation entries grow
    # with k while the smallest ones stay at label size
    primes = first_primes(80)
    product = math.prod(primes)
    cycle = EdgeLabeledCycle(tuple(product // p for p in primes))
    assert_smallest_below_triangulation(cycle)
    widest = max(max(element) for element in triangulation_basis(cycle))
    assert max(max(element) for element in smallest_basis(cycle)) < widest


def test_chain_steps_are_built_once_per_cycle(monkeypatch, rng):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return congruence_step(a, b)

    congruence_step = spline_core.congruence_step
    monkeypatch.setattr(spline_core, "congruence_step", counting)
    cycle = random_cycle(rng, n_range=(60, 60))
    singles = [triangulation_spline(cycle, k) for k in range(cycle.n)]
    smallest = [smallest_flow_up_class(cycle, k) for k in range(1, cycle.n)]
    assert len(calls) == cycle.n - 1
    assert tuple(singles) == triangulation_basis(cycle).elements
    assert tuple(smallest) == smallest_basis(cycle).elements[1:]
    assert len(calls) == cycle.n - 1


def test_random_king_cycles_have_coprime_tail(rng):
    for _ in range(20):
        cycle = random_king_cycle(rng)
        assert math.gcd(cycle.label(cycle.n - 1), cycle.label(cycle.n)) == 1
        king_basis(cycle)
