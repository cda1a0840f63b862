import copy
import dataclasses
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cycle, random_king_cycle
from cyclesplines import (
    DimensionError,
    EdgeLabeledCycle,
    FlowUpBasis,
    InvariantViolationError,
    NotInSpanError,
    ProductDecomposition,
    Spline,
    check_flow_up_basis,
    decompose,
    is_spline,
    king_basis,
    king_multiplication_table,
    king_product,
    pointwise_mul,
    product_in_basis,
    reconstruct,
    smallest_basis,
    smallest_leading_entry,
    triangulation_basis,
    triangulation_table_3cycle,
    trivial_spline,
)
from cyclesplines import ring_algebra, spline_core

desk_labels = st.lists(st.integers(min_value=1, max_value=12), min_size=3, max_size=6)
coefficients = st.integers(min_value=-(10**6), max_value=10**6)


# ------------------------------------------------- decompose/reconstruct


def test_decompose_known_spline():
    basis = triangulation_basis(EdgeLabeledCycle((2, 5, 3)))
    assert decompose(Spline((1, 3, 13)), basis) == (1, 1, 0)
    assert decompose(Spline((0, 0, 0)), basis) == (0, 0, 0)
    assert decompose(Spline((0, 2, 12)), basis) == (0, 1, 0)


def test_reconstruct_known_coefficients():
    basis = triangulation_basis(EdgeLabeledCycle((2, 5, 3)))
    assert reconstruct((1, 1, 0), basis).entries == (1, 3, 13)
    assert reconstruct((0, 0, -2), basis).entries == (0, 0, -30)


def test_decompose_rejects_non_spline():
    basis = triangulation_basis(EdgeLabeledCycle((2, 5, 3)))
    with pytest.raises(NotInSpanError):
        decompose(Spline((1, 1, 2)), basis)
    with pytest.raises(NotInSpanError):
        decompose(Spline((0, 1, 0)), basis)


def test_decompose_dimension_mismatch():
    basis = triangulation_basis(EdgeLabeledCycle((2, 5, 3)))
    with pytest.raises(DimensionError):
        decompose(Spline((1, 1, 1, 1)), basis)
    with pytest.raises(DimensionError):
        reconstruct((1, 1), basis)


@settings(max_examples=60)
@given(desk_labels, st.data())
def test_round_trip_in_triangulation_basis(labels, data):
    basis = triangulation_basis(EdgeLabeledCycle(tuple(labels)))
    coeffs = tuple(data.draw(coefficients) for _ in range(len(basis)))
    assert decompose(reconstruct(coeffs, basis), basis) == coeffs


# ------------------------------------------------------------- rendering


def test_render_forms():
    assert ProductDecomposition(0, 0, ()).render("H") == "0"
    assert ProductDecomposition(0, 1, ((1, 1),)).render("K") == "K1"
    assert ProductDecomposition(0, 1, ((1, -1),)).render("K") == "-K1"
    assert ProductDecomposition(1, 1, ((1, 2), (2, 8))).render("H") == "2*H1 + 8*H2"
    assert ProductDecomposition(1, 1, ((1, 6), (2, -4))).render("H") == "6*H1 - 4*H2"


def test_coefficients_dense_form():
    cell = ProductDecomposition(1, 3, ((3, 3), (4, 48)))
    assert cell.coefficients(5) == (0, 0, 0, 3, 48)


# ------------------------------------------------------------- king ring


def test_king_product_reproduces_worked_example():
    cycle = EdgeLabeledCycle((3, 4, 8, 2, 5))
    cell = king_product(cycle, 1, 3)
    assert cell.terms == ((3, 3), (4, 48))
    assert cell.render("K") == "3*K3 + 48*K4"
    basis = king_basis(cycle)
    product = pointwise_mul(basis[1], basis[3])
    assert product.entries == (0, 0, 0, 24, 600)
    assert cell.reconstruct(basis) == product


def test_king_product_identity_and_last_element():
    cycle = EdgeLabeledCycle((3, 4, 8, 2, 5))
    assert king_product(cycle, 0, 2).terms == ((2, 1),)
    assert king_product(cycle, 0, 0).terms == ((0, 1),)
    # j = n - 1 collapses onto the last element, coefficient = last entry of i
    assert king_product(cycle, 1, 4).terms == ((4, 15),)
    assert king_product(cycle, 4, 4).terms == ((4, 10),)


def test_king_product_is_symmetric():
    cycle = EdgeLabeledCycle((3, 4, 8, 2, 5))
    assert king_product(cycle, 3, 1) == king_product(cycle, 1, 3)


def test_king_product_index_bounds():
    cycle = EdgeLabeledCycle((3, 4, 8, 2, 5))
    with pytest.raises(IndexError):
        king_product(cycle, 0, 5)
    with pytest.raises(IndexError):
        king_product(cycle, -1, 0)


def test_king_product_matches_generic_path(rng):
    for _ in range(25):
        cycle = random_king_cycle(rng, n_range=(3, 7), label_range=(1, 20))
        basis = king_basis(cycle)
        for i in range(cycle.n):
            for j in range(i, cycle.n):
                assert king_product(cycle, i, j) == product_in_basis(basis, i, j)


def test_king_multiplication_table():
    cycle = EdgeLabeledCycle((3, 4, 8, 2, 5))
    table = king_multiplication_table(cycle)
    basis = king_basis(cycle)
    n = len(basis)
    for i in range(n):
        for j in range(n):
            cell = table[i][j]
            assert cell == table[j][i]
            assert cell.reconstruct(basis) == pointwise_mul(basis[i], basis[j])
    assert table[1][3].terms == ((3, 3), (4, 48))


def test_king_table_at_scale_matches_king_product(rng):
    cycle = random_king_cycle(rng, n_range=(300, 300))
    table = king_multiplication_table(cycle)
    for i, row in enumerate(table):
        for j, cell in enumerate(row):
            assert cell == king_product(cycle, i, j)


def test_ten_thousand_vertices_need_no_element_laid_out(rng, monkeypatch):
    # built, certified, read for its leads and used to decompose and to
    # multiply from its elements' jumps alone
    def lay_out(*args):
        raise AssertionError("an element was laid out")

    monkeypatch.setattr(spline_core, "_lay_out", lay_out)
    cycle = random_cycle(rng, n_range=(10_000, 10_000))
    n = cycle.n
    basis = triangulation_basis(cycle)
    assert len(basis) == n and all(len(element) == n for element in basis)
    assert check_flow_up_basis(cycle, basis.elements)
    leads = (1, *(smallest_leading_entry(cycle, k) for k in range(1, n)))
    assert basis.leading_entries() == leads
    coefficients = tuple(rng.randint(-9, 9) for _ in range(n))
    spline = reconstruct(coefficients, basis)
    assert is_spline(cycle, spline)
    assert decompose(spline, basis) == coefficients
    cell = product_in_basis(basis, 7000, 3)
    monkeypatch.undo()
    assert (cell.i, cell.j) == (3, 7000)
    assert cell.reconstruct(basis) == basis[3] * basis[7000]


def test_product_cells_have_no_instance_dict_and_survive_pickle_and_deepcopy():
    cell = king_product(EdgeLabeledCycle((3, 4, 8, 2, 10**40 + 1)), 1, 3)
    assert not hasattr(cell, "__dict__")
    for twin in (pickle.loads(pickle.dumps(cell)), copy.deepcopy(cell)):
        assert type(twin) is ProductDecomposition and twin == cell
    with pytest.raises(dataclasses.FrozenInstanceError):
        cell.terms = ()


# -------------------------------------------------------------- triangulation ring


def test_triangulation_table_three_cycle():
    cycle = EdgeLabeledCycle((2, 5, 3))
    table = triangulation_table_3cycle(cycle)
    basis = triangulation_basis(cycle)
    assert table[1][1].terms == ((1, 2), (2, 8))
    assert table[1][2].terms == ((2, 12),)
    assert table[2][2].terms == ((2, 15),)
    assert table[0][1].terms == ((1, 1),)
    square = pointwise_mul(basis[1], basis[1])
    assert square.entries == (0, 4, 144)
    assert table[1][1].reconstruct(basis) == square


def test_triangulation_table_negative_coefficient():
    # (0, 6, 2) squared needs a negative multiple of (0, 0, 2)
    cycle = EdgeLabeledCycle((6, 2, 2))
    basis = triangulation_basis(cycle)
    assert basis[1].entries == (0, 6, 2)
    table = triangulation_table_3cycle(cycle)
    assert table[1][1].terms == ((1, 6), (2, -4))
    assert table[1][1].render("H") == "6*H1 - 4*H2"
    assert table[1][1].reconstruct(basis) == pointwise_mul(basis[1], basis[1])


def test_triangulation_table_needs_three_cycle():
    with pytest.raises(DimensionError):
        triangulation_table_3cycle(EdgeLabeledCycle((2, 6, 15, 10)))


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=3, max_size=3))
def test_triangulation_table_always_reconstructs(labels):
    cycle = EdgeLabeledCycle(tuple(labels))
    basis = triangulation_basis(cycle)
    table = triangulation_table_3cycle(cycle)
    for i in range(3):
        for j in range(3):
            assert table[i][j].reconstruct(basis) == pointwise_mul(basis[i], basis[j])


# --------------------------------------------------------- generic products


def test_product_in_basis_index_bounds():
    basis = triangulation_basis(EdgeLabeledCycle((2, 5, 3)))
    for i, j in ((0, 3), (3, 0), (-1, 1)):
        with pytest.raises(IndexError, match=r"indices must be in \[0, 2\]"):
            product_in_basis(basis, i, j)


def test_product_in_basis_on_longer_cycles():
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    basis = triangulation_basis(cycle)
    cell = product_in_basis(basis, 1, 1)
    assert cell.terms == ((1, 2), (2, 80), (3, 1000))
    assert cell.reconstruct(basis) == pointwise_mul(basis[1], basis[1])
    swapped = product_in_basis(basis, 1, 2)
    assert swapped == product_in_basis(basis, 2, 1)


def test_product_in_basis_smallest_kind():
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    basis = smallest_basis(cycle)
    for i in range(cycle.n):
        for j in range(cycle.n):
            cell = product_in_basis(basis, i, j)
            assert cell.reconstruct(basis) == pointwise_mul(basis[i], basis[j])


@pytest.mark.parametrize(
    "terms",
    [
        ((3, 3), (4, 49)),
        # the right sum, but not in canonical form (a zero coefficient kept)
        ((2, 0), (3, 3), (4, 48)),
        # an index past the basis
        ((9, 1),),
    ],
)
def test_table_rejects_a_wrong_cell(monkeypatch, terms):
    cycle = EdgeLabeledCycle((3, 4, 8, 2, 5))
    assert king_product(cycle, 1, 3).terms == ((3, 3), (4, 48))
    king_cell = ring_algebra._king_cell

    def wrong_cell(cycle, i, j, *tail):
        cell = king_cell(cycle, i, j, *tail)
        return ProductDecomposition(1, 3, terms) if (cell.i, cell.j) == (1, 3) else cell

    monkeypatch.setattr(ring_algebra, "_king_cell", wrong_cell)
    with pytest.raises(
        InvariantViolationError,
        match=r"table cell \(1, 3\) disagrees with the componentwise product",
    ):
        king_multiplication_table(cycle)


def test_table_rejects_a_cell_filed_under_other_indices(monkeypatch):
    # the right terms for the product, but labelled (3, 1) at cell (1, 3)
    cycle = EdgeLabeledCycle((3, 4, 8, 2, 5))
    king_cell = ring_algebra._king_cell

    def swapped_cell(cycle, i, j, *tail):
        cell = king_cell(cycle, i, j, *tail)
        return ProductDecomposition(j, i, cell.terms) if (i, j) == (1, 3) else cell

    monkeypatch.setattr(ring_algebra, "_king_cell", swapped_cell)
    with pytest.raises(InvariantViolationError, match=r"table cell \(1, 3\) disagrees"):
        king_multiplication_table(cycle)


# ------------------------------------------------- messages at any size


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str digit limit"
)
def test_invariant_messages_survive_the_digit_limit(monkeypatch):
    # both integrality checks always pass on real input, so force a
    # non-integral coefficient over a denominator wider than the limit
    wide = 10**4400
    cycle = EdgeLabeledCycle((2, 5, 3, 7))
    fake_basis = FlowUpBasis(
        EdgeLabeledCycle((2, 5, 3)),
        (trivial_spline(3), Spline((0, 1, 2)), Spline((0, 0, wide))),
        "triangulation",
    )
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        monkeypatch.setattr(ring_algebra, "_king_tail", lambda cycle: (wide, 1, 2))
        with pytest.raises(InvariantViolationError, match="8/<4401-digit integer>"):
            king_product(cycle, 1, 1)
        monkeypatch.setattr(ring_algebra, "triangulation_basis", lambda cycle: fake_basis)
        with pytest.raises(InvariantViolationError, match="2/<4401-digit integer>"):
            triangulation_table_3cycle(EdgeLabeledCycle((2, 5, 3)))
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)
