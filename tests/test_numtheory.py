import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import egcd
from cyclesplines import (
    NoSolutionError,
    NotInvertibleError,
    lcm,
    mod_inverse,
    solve_congruence_pair,
)

any_int = st.integers(min_value=-(10**9), max_value=10**9)
positive = st.integers(min_value=1, max_value=10**6)
small_modulus = st.integers(min_value=1, max_value=240)


def test_egcd_gcd_values():
    assert egcd(12, 18)[0] == 6
    assert egcd(7, 0)[0] == 7
    assert egcd(0, 7)[0] == 7
    assert egcd(-12, 18)[0] == 6
    assert egcd(1, 1)[0] == 1


def test_egcd_rejects_two_zeros():
    with pytest.raises(ValueError):
        egcd(0, 0)


@given(any_int, any_int)
def test_egcd_bezout_identity(a, b):
    if a == 0 and b == 0:
        return
    g, s, t = egcd(a, b)
    assert g == math.gcd(a, b)
    assert g >= 1
    assert a * s + b * t == g


def test_lcm_values():
    assert lcm(4, 6) == 12
    assert lcm(1, 9) == 9
    assert lcm(15, 10) == 30


@pytest.mark.parametrize("a,b", [(0, 3), (3, 0), (-2, 5), (5, -2)])
def test_lcm_requires_positive(a, b):
    with pytest.raises(ValueError):
        lcm(a, b)


@given(positive, positive)
def test_lcm_times_gcd(a, b):
    assert lcm(a, b) * math.gcd(a, b) == a * b


def test_mod_inverse_values():
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(1, 2) == 1
    # every residue collapses modulo 1, with canonical representative 0
    assert mod_inverse(5, 1) == 0
    assert mod_inverse(0, 1) == 0


def test_mod_inverse_errors():
    with pytest.raises(NotInvertibleError):
        mod_inverse(6, 9)
    with pytest.raises(NotInvertibleError):
        mod_inverse(0, 5)
    with pytest.raises(ValueError):
        mod_inverse(3, 0)
    with pytest.raises(ValueError):
        mod_inverse(3, -7)


@given(any_int, small_modulus)
def test_mod_inverse_matches_pow(a, m):
    if math.gcd(a, m) != 1:
        with pytest.raises(NotInvertibleError):
            mod_inverse(a, m)
        return
    inv = mod_inverse(a, m)
    assert 0 <= inv < m
    assert inv == pow(a, -1, m)
    assert (a * inv) % m == 1 % m


def test_solve_congruence_pair_values():
    # chain steps that appear in basis constructions
    assert solve_congruence_pair(2, 5, 3) == 12
    assert solve_congruence_pair(2, 6, 5) == 50
    assert solve_congruence_pair(50, 15, 10) == 200
    assert solve_congruence_pair(30, 15, 10) == 120


def test_solve_congruence_pair_pinned_when_first_modulus_collapses():
    # once gcd is divided out a trivial first modulus pins the answer to b,
    # even for y = 0
    assert solve_congruence_pair(4, 2, 6) == 6
    assert solve_congruence_pair(0, 2, 6) == 6
    assert solve_congruence_pair(0, 1, 9) == 9
    assert solve_congruence_pair(6, 2, 2) == 2


def test_solve_congruence_pair_errors():
    with pytest.raises(NoSolutionError):
        solve_congruence_pair(1, 2, 2)
    with pytest.raises(NoSolutionError):
        solve_congruence_pair(3, 6, 4)
    with pytest.raises(ValueError):
        solve_congruence_pair(1, 0, 2)
    with pytest.raises(ValueError):
        solve_congruence_pair(1, 2, -2)


@given(
    st.integers(min_value=-240, max_value=240),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
)
def test_solve_congruence_pair_satisfies_both_congruences(y, a, b):
    g = math.gcd(a, b)
    if y % g != 0:
        with pytest.raises(NoSolutionError):
            solve_congruence_pair(y, a, b)
        return
    x = solve_congruence_pair(y, a, b)
    assert (x - y) % a == 0
    assert x % b == 0
