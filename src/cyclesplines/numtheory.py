"""Exact integer primitives used by the basis constructions.

All functions work on arbitrary-precision Python ints and return the least
non-negative residue whenever a canonical representative is required.  The
representative returned by :func:`solve_congruence_pair` is pinned: basis
entries are built from it, so changing it would silently change outputs.
It comes from :func:`congruence_step`, the part of the system that depends
on the moduli alone, which the triangulation chain computes once per edge
and applies to every entry it produces.
"""

from __future__ import annotations

import math

from .errors import NoSolutionError, NotInvertibleError, _int_text


def lcm(a: int, b: int) -> int:
    """Least common multiple of two positive integers."""
    if a <= 0 or b <= 0:
        raise ValueError(f"lcm requires positive arguments, got ({a}, {b})")
    return math.lcm(a, b)


def mod_inverse(a: int, m: int) -> int:
    """Inverse of ``a`` modulo ``m`` as the least non-negative residue.

    ``mod_inverse(a, 1)`` is 0 for every ``a``: all integers are congruent
    modulo 1 and 0 is the canonical residue.  Raises
    :class:`NotInvertibleError` when gcd(a, m) != 1.
    """
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        a, m, g = map(_int_text, (a, m, math.gcd(a, m)))
        raise NotInvertibleError(f"{a} is not invertible modulo {m}: gcd is {g}") from None


def congruence_step(a: int, b: int) -> tuple[int, int]:
    """The part of x = y (mod a), x = 0 (mod b) that does not depend on y.

    Returns (g, mult) with g = gcd(a, b).  For every y divisible by g the
    pinned solution is ``y * mult``, or ``b`` itself when ``mult`` is 0,
    which happens exactly when a // g == 1.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"moduli must be positive, got ({a}, {b})")
    g = math.gcd(a, b)
    return g, (b // g) * pow(b // g, -1, a // g)


def solve_congruence_pair(y: int, a: int, b: int) -> int:
    """Solve x = y (mod a), x = 0 (mod b), returning the canonical solution.

    With g = gcd(a, b) the system is solvable iff g divides y.  The
    representative is pinned and comes from :func:`congruence_step`:

    * if a // g == 1 the answer is ``b`` itself (even when y == 0);
    * otherwise it is ``y * (b // g) * inv`` where ``inv`` is the least
      non-negative inverse of b // g modulo a // g.

    Raises :class:`NoSolutionError` when g does not divide y.
    """
    g, mult = congruence_step(a, b)
    if y % g != 0:
        y, a, b, g = map(_int_text, (y, a, b, g))
        raise NoSolutionError(
            f"x = {y} (mod {a}), x = 0 (mod {b}) has no solution: "
            f"gcd({a}, {b}) = {g} does not divide {y}"
        )
    return y * mult if mult else b
