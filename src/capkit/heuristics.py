"""Predicted distribution of even p-ranks for class groups in the relevant
family, with a seeded Monte Carlo realization, a total-variation
comparison utility and the published numbers at p = 3.

The closed form puts mass (1 - p^-2) * p^(-2(k-1)) on rank 2k for k >= 1.
Probabilities are kept as exact fractions; only presentation rounds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .abgroup import is_prime
from .value import value_type


class HeuristicsError(ValueError):
    pass


# published columns of the rank heuristic at p = 3, ranks 2 / 4 / 6:
# the closed-form prediction as printed (four decimals) and the observed
# frequencies it was compared against.
PUBLISHED_HEURISTIC_P3 = (
    Fraction(8889, 10**4), Fraction(989, 10**4), Fraction(110, 10**4))
PUBLISHED_EMPIRICAL_P3 = (
    Fraction(8992, 10**4), Fraction(950, 10**4), Fraction(71, 10**4))


@value_type("p", "kmax", "probs")
class RankDistribution:
    """Probability mass on even ranks 2, 4, ..., 2*kmax (exact fractions).
    The tail mass beyond 2*kmax is implicit: residual() returns it."""

    def __init__(self, p, kmax, probs):
        # probs: ((2k, Fraction), ...) ascending
        _check_prime(p)
        if kmax < 1:
            raise HeuristicsError("need kmax >= 1")
        if len(probs) != kmax:
            raise HeuristicsError("need one mass per rank 2..2*kmax")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "kmax", kmax)
        object.__setattr__(self, "probs", probs)

    def mass(self, rank):
        for r, q in self.probs:
            if r == rank:
                return q
        if rank % 2 == 0 and rank > 0:
            return Fraction(0)
        raise HeuristicsError("rank must be a positive even integer")

    def residual(self):
        return 1 - sum(q for _, q in self.probs)


# the primality test is trial division, so p stays below this
MAX_P = 10 ** 12


# The builders check p before they divide by it, and the RankDistribution
# they return checks it again.  A rejected p raises on every call; typed, so
# that an accepted 3 does not let 3.0 through.
@lru_cache(maxsize=None, typed=True)
def _check_prime(p):
    if not (p <= MAX_P and is_prime(p)):
        raise HeuristicsError("p must be a prime <= %d, got %d" % (MAX_P, p))


def predicted_rank_distribution(p: int, kmax: int = 50) -> RankDistribution:
    """P(rank = 2k) = (1 - p^-2) * p^(-2(k-1)), truncated at k = kmax."""
    _check_prime(p)
    head = 1 - Fraction(1, p * p)
    probs = tuple((2 * k, head * Fraction(1, p ** (2 * (k - 1))))
                  for k in range(1, kmax + 1))
    return RankDistribution(p, kmax, probs)


def monte_carlo_rank_distribution(p: int, trials: int, seed: int,
                                  kmax: int = 50) -> RankDistribution:
    """Empirical rank frequencies from a stepwise growth process: the rank
    starts at 2 and is promoted while both of two independent uniform
    residues mod p^2 vanish mod p.  Promotion probability p^-2 per step
    reproduces the closed-form masses."""
    _check_prime(p)
    if trials < 1:
        raise HeuristicsError("need at least one trial")
    rng = random.Random(seed)
    p2 = p * p
    counts = [0] * (kmax + 1)
    for _ in range(trials):
        k = 1
        while k < kmax:
            u = rng.randrange(p2)
            v = rng.randrange(p2)
            if u % p or v % p:
                break
            k += 1
        counts[k] += 1
    probs = tuple((2 * k, Fraction(counts[k], trials))
                  for k in range(1, kmax + 1))
    return RankDistribution(p, kmax, probs)


def compare_distributions(a: RankDistribution, b: RankDistribution) -> Fraction:
    """Total variation distance, the tail mass treated as one extra outcome."""
    if a.p != b.p or a.kmax != b.kmax:
        raise HeuristicsError("distributions live on different supports")
    total = sum(abs(a.mass(r) - b.mass(r)) for r, _ in a.probs)
    total += abs(a.residual() - b.residual())
    return Fraction(total, 2)
