"""Predicted distribution of even p-ranks for class groups in the relevant
family, with a seeded Monte Carlo realization and a total-variation
comparison utility.

The closed form puts mass (1 - p^-2) * p^(-2(k-1)) on rank 2k for k >= 1.
Probabilities are kept as exact fractions; only presentation rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .abgroup import is_prime


class HeuristicsError(ValueError):
    pass


@dataclass(frozen=True)
class RankDistribution:
    """Probability mass on even ranks 2, 4, ..., 2*kmax (exact fractions).
    The tail mass beyond 2*kmax is implicit: residual() returns it."""

    p: int
    kmax: int
    probs: tuple  # ((2k, Fraction), ...) ascending

    def __post_init__(self):
        _check_prime(self.p)
        if self.kmax < 1:
            raise HeuristicsError("need kmax >= 1")
        if len(self.probs) != self.kmax:
            raise HeuristicsError("need one mass per rank 2..2*kmax")

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
