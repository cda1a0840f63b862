import contextlib
import copy
import dataclasses
import operator
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesplines import (
    BasisStructureError,
    DimensionError,
    EdgeLabeledCycle,
    EdgeLabeledGraph,
    KingPreconditionError,
    NoSolutionError,
    NotInSpanError,
    NotInvertibleError,
    Spline,
    add,
    check_flow_up_basis,
    decompose,
    is_spline,
    king_basis,
    labeled_edges,
    leading_zeros,
    mod_inverse,
    pointwise_mul,
    scalar_mul,
    solve_congruence_pair,
    triangulation_basis,
    trivial_spline,
)
from cyclesplines.spline_core import vertex_count


# ---------------------------------------------------------------- cycles


def test_cycle_basics():
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    assert cycle.n == 4
    assert cycle.label(1) == 2
    assert cycle.label(4) == 10
    assert cycle.label_product() == 1800
    assert [cycle.suffix_gcd(i) for i in range(1, 5)] == [1, 1, 5, 10]


def test_cycle_edges_wrap_around():
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    assert list(cycle.edges()) == [
        (1, 1, 2, 2),
        (2, 2, 3, 6),
        (3, 3, 4, 15),
        (4, 4, 1, 10),
    ]


def test_cycle_as_graph_keeps_edges():
    cycle = EdgeLabeledCycle((2, 5, 3))
    graph = cycle.as_graph()
    assert graph.vertex_count == 3
    assert graph.edges == ((1, 2, 2), (2, 3, 5), (3, 1, 3))
    assert labeled_edges(graph) == labeled_edges(cycle)


def test_cycle_validation():
    with pytest.raises(ValueError):
        EdgeLabeledCycle((2, 5))
    with pytest.raises(ValueError):
        EdgeLabeledCycle((2, 0, 3))
    with pytest.raises(ValueError):
        EdgeLabeledCycle((2, -5, 3))
    with pytest.raises(TypeError):
        EdgeLabeledCycle((2.0, 5, 3))


def test_cycle_index_bounds():
    cycle = EdgeLabeledCycle((2, 5, 3))
    for bad in (0, 4, -1):
        with pytest.raises(IndexError):
            cycle.label(bad)
        with pytest.raises(IndexError):
            cycle.suffix_gcd(bad)


# ---------------------------------------------------------------- graphs


def test_graph_validation():
    EdgeLabeledGraph(2, ((1, 2, 3),))
    with pytest.raises(ValueError):
        EdgeLabeledGraph(0, ())
    with pytest.raises(ValueError):
        EdgeLabeledGraph(2, ((1, 3, 1),))
    with pytest.raises(ValueError):
        EdgeLabeledGraph(2, ((1, 1, 1),))
    with pytest.raises(ValueError):
        EdgeLabeledGraph(2, ((1, 2, 0),))


def unpack_edge_reference(edge):
    """The per-edge unpacking the graph constructor used before it mapped
    operator.index over the edge."""
    u, v, lab = (operator.index(x) for x in edge)
    return u, v, lab


@pytest.mark.parametrize(
    "edge",
    [(1, 2), (1, 2, 3, 4), (1, 2, 3, 4.5), (1, 2.0, 3), ("1", 2, 3), (1, 2, None)]
    + [5, None, [], "123"],
)
def test_malformed_edges_keep_their_errors(edge):
    with pytest.raises((TypeError, ValueError)) as expected:
        unpack_edge_reference(edge)
    with pytest.raises(expected.type) as got:
        EdgeLabeledGraph(3, ((1, 2, 3), edge))
    assert str(got.value) == str(expected.value)


def test_graph_label_product():
    assert EdgeLabeledGraph(3, ((1, 2, 4), (2, 3, 5))).label_product() == 20
    assert EdgeLabeledGraph(3, ()).label_product() == 1


# --------------------------------------------------------------- splines


def test_spline_operators():
    a = Spline((1, 2, 3))
    b = Spline((0, 10, 100))
    assert (a + b).entries == (1, 12, 103)
    assert (a - b).entries == (1, -8, -97)
    assert (-a).entries == (-1, -2, -3)
    assert (a * 5).entries == (5, 10, 15)
    assert (5 * a).entries == (5, 10, 15)
    assert (a * b).entries == (0, 20, 300)
    assert len(a) == 3 and a[2] == 3 and list(a) == [1, 2, 3]


def test_splines_have_no_instance_dict_and_survive_pickle_and_deepcopy():
    checked = Spline((1, -(10**40), 0))
    trusted = triangulation_basis(EdgeLabeledCycle((2, 5, 3)))[1]
    for spline in (checked, trusted):
        assert not hasattr(spline, "__dict__")
        for twin in (pickle.loads(pickle.dumps(spline)), copy.deepcopy(spline)):
            assert type(twin) is Spline and twin == spline
        with pytest.raises(dataclasses.FrozenInstanceError):
            spline.entries = (1, 1, 1)


def test_spline_helper_functions():
    a = Spline((1, 2, 3))
    b = Spline((2, 2, 2))
    assert add(a, b).entries == (3, 4, 5)
    assert scalar_mul(-2, a).entries == (-2, -4, -6)
    assert pointwise_mul(a, b).entries == (2, 4, 6)


def test_spline_length_mismatch():
    with pytest.raises(DimensionError):
        Spline((1, 2)) + Spline((1, 2, 3))
    with pytest.raises(DimensionError):
        Spline((1, 2)) * Spline((1, 2, 3))


def test_spline_arithmetic_with_non_splines_is_a_type_error():
    # the operators return NotImplemented, which Python turns into TypeError
    s = Spline((0, 2, 12))
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+"):
        s + 1
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -"):
        s - 1
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*"):
        s * 1.5
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*"):
        1.5 * s


def test_spline_rejects_floats():
    with pytest.raises(TypeError):
        Spline((1.5, 2, 3))


def test_spline_entries_and_vertex_count():
    assert vertex_count(EdgeLabeledCycle((2, 5, 3))) == 3
    assert vertex_count(EdgeLabeledGraph(7, ())) == 7


def test_trivial_spline():
    assert trivial_spline(4).entries == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        trivial_spline(2)


def test_leading_zeros():
    assert leading_zeros(Spline((1, 1, 1))) == 0
    assert leading_zeros((0, 2, 12)) == 1
    assert leading_zeros((0, 0, 0)) == 3


# -------------------------------------------------------------- checking


def test_is_spline_accepts_known_labelings():
    cycle = EdgeLabeledCycle((2, 5, 3))
    for labels in ((1, 1, 1), (0, 2, 12), (0, 0, 15)):
        check = is_spline(cycle, labels)
        assert check.ok and bool(check) and check.violations == ()


def test_is_spline_collects_all_violations():
    cycle = EdgeLabeledCycle((2, 6, 15, 10))
    check = is_spline(cycle, (0, 2, 15, 200))
    assert not check.ok
    assert [v.edge for v in check.violations] == [2, 3]
    first = check.violations[0]
    assert (first.u, first.v, first.label) == (2, 3, 6)
    assert (first.value_u, first.value_v) == (2, 15)
    assert "edge 2" in first.describe()
    assert "not a multiple of 6" in first.describe()


def test_is_spline_on_general_graph():
    graph = EdgeLabeledGraph(3, ((1, 2, 4), (1, 3, 2)))
    assert is_spline(graph, (0, 4, 6)).ok
    assert not is_spline(graph, (0, 4, 7)).ok


def test_is_spline_wrong_length():
    with pytest.raises(DimensionError):
        is_spline(EdgeLabeledCycle((2, 5, 3)), (1, 1))


def test_negative_entries_allowed():
    cycle = EdgeLabeledCycle((2, 5, 3))
    assert is_spline(cycle, (-1, -1, -1)).ok
    assert is_spline(cycle, (0, -2, -12)).ok


# ---------------------------------------------------- ring/module closure


@given(st.data())
def test_splines_closed_under_ring_operations(data):
    labels = data.draw(
        st.lists(st.integers(min_value=1, max_value=12), min_size=3, max_size=6)
    )
    cycle = EdgeLabeledCycle(tuple(labels))
    basis = triangulation_basis(cycle)
    coeff = st.integers(min_value=-50, max_value=50)
    a = Spline((0,) * cycle.n)
    b = Spline((0,) * cycle.n)
    for element in basis:
        a = a + data.draw(coeff) * element
        b = b + data.draw(coeff) * element
    assert is_spline(cycle, a).ok and is_spline(cycle, b).ok
    assert is_spline(cycle, a + b).ok
    assert is_spline(cycle, a - b).ok
    assert is_spline(cycle, a * b).ok
    assert is_spline(cycle, data.draw(coeff) * a).ok


# ------------------------------------------------- error messages at any size

HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


@contextlib.contextmanager
def digit_limit(limit):
    """Run under the given int <-> str digit limit (0 lifts it), where the
    interpreter has one (CPython 3.10.7+)."""
    if not HAS_DIGIT_LIMIT:
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def failing_calls(wide):
    """Calls that fail with a message quoting ``wide`` (odd) or its neighbour."""
    cycle = EdgeLabeledCycle((2, 5, 3))
    basis = triangulation_basis(cycle)
    not_a_spline = [basis[0], (0, wide, 12), basis[2]]
    return [
        (NoSolutionError, lambda: solve_congruence_pair(wide, 4, 2)),
        (NotInSpanError, lambda: decompose((0, wide, 0), basis)),
        (BasisStructureError, lambda: check_flow_up_basis(cycle, not_a_spline)),
        (NotInvertibleError, lambda: mod_inverse(wide + 1, 4)),
        (KingPreconditionError, lambda: king_basis(EdgeLabeledCycle((3, abs(wide) + 1, 2)))),
    ]


@settings(max_examples=10, deadline=None)
@given(st.integers(4301, 4400), st.integers(0, 10**6), st.booleans())
def test_errors_about_wide_numbers_keep_their_types(digits, low, negative):
    wide = (10 ** (digits - 1) + 2 * low + 1) * (-1 if negative else 1)
    for error, call in failing_calls(wide):
        # CPython's default limit of 4300 digits, as a library caller has it
        with digit_limit(4300):
            with pytest.raises(error) as info:
                call()
            if HAS_DIGIT_LIMIT:
                assert sys.get_int_max_str_digits() == 4300
                assert f"<{digits}-digit integer>" in str(info.value)
        # without a limit the full digits are printed
        with digit_limit(0):
            with pytest.raises(error) as info:
                call()
            assert "-digit integer>" not in str(info.value)
    # a well-formed non-basis is a verdict, not an error; its defects describe it
    cycle = EdgeLabeledCycle((2, 5, 3))
    basis = triangulation_basis(cycle)
    check = check_flow_up_basis(cycle, [basis[0], basis[1], basis[2] * abs(wide)])
    with digit_limit(4300):
        text = check.defects[0].describe()
    if HAS_DIGIT_LIMIT:
        assert text.endswith(f"(expected 15, got <{digits + 1}-digit integer>)")
