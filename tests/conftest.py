"""Shared helpers: seeded RNG, random cycle factories and the extended
Euclid reference."""

import math
import random

import pytest

from cyclesplines import EdgeLabeledCycle

SEED = 987654321


@pytest.fixture
def rng():
    return random.Random(SEED)


def random_cycle(rng, n_range=(3, 8), label_range=(1, 30)):
    n = rng.randint(*n_range)
    return EdgeLabeledCycle(tuple(rng.randint(*label_range) for _ in range(n)))


def random_king_cycle(rng, n_range=(3, 8), label_range=(1, 30)):
    # resample until the last two labels are coprime
    while True:
        cycle = random_cycle(rng, n_range, label_range)
        if math.gcd(cycle.label(cycle.n - 1), cycle.label(cycle.n)) == 1:
            return cycle


def egcd(a, b):
    """Extended Euclid: return (g, s, t) with g = gcd(a, b) >= 0 and a*s + b*t = g."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
