"""Rank distribution model: closed form, Monte Carlo realization, and the
total-variation comparison."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkit import heuristics
from capkit.abgroup import is_prime
from capkit.heuristics import (MAX_P, HeuristicsError, RankDistribution,
                               compare_distributions,
                               monte_carlo_rank_distribution,
                               predicted_rank_distribution)


class TestClosedForm:
    def test_masses_are_exact_geometric_terms(self):
        d = predicted_rank_distribution(3, kmax=10)
        assert d.mass(2) == Fraction(8, 9)
        assert d.mass(4) == Fraction(8, 81)
        assert d.mass(6) == Fraction(8, 729)
        assert d.mass(22) == 0

    def test_four_decimal_presentation(self):
        d = predicted_rank_distribution(3)
        assert round(float(d.mass(2)), 4) == 0.8889
        assert round(float(d.mass(4)), 4) == 0.0988
        assert round(float(d.mass(6)), 4) == 0.0110

    @given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_total_mass_is_one(self, p, kmax):
        d = predicted_rank_distribution(p, kmax=kmax)
        assert sum(q for _, q in d.probs) + d.residual() == 1
        assert all(q > 0 for _, q in d.probs)
        # each successive mass falls by exactly p^2
        for (_, a), (_, b) in zip(d.probs, d.probs[1:]):
            assert a == b * p * p

    def test_parameter_validation(self):
        with pytest.raises(HeuristicsError):
            predicted_rank_distribution(1)
        with pytest.raises(HeuristicsError):
            RankDistribution(3, 2, ((2, Fraction(1)),))
        with pytest.raises(HeuristicsError):
            predicted_rank_distribution(3).mass(3)


@pytest.mark.parametrize("p", [4, 9, 0, -3, MAX_P + 1])
def test_non_prime_p_is_rejected(p):
    with pytest.raises(HeuristicsError):
        predicted_rank_distribution(p)
    with pytest.raises(HeuristicsError):
        monte_carlo_rank_distribution(p, 10, seed=1)
    with pytest.raises(HeuristicsError):
        RankDistribution(p, 1, ((2, Fraction(1)),))


@pytest.mark.parametrize("build", [
    predicted_rank_distribution,
    lambda p: monte_carlo_rank_distribution(p, 10, seed=1)])
def test_each_build_tests_p_at_most_once(build, monkeypatch):
    # the builders and the RankDistribution they return both check p
    heuristics._check_prime.cache_clear()
    calls = []
    monkeypatch.setattr(heuristics, "is_prime",
                        lambda n: calls.append(n) or is_prime(n))
    for p in (1000003, 1000003, 7):
        before = len(calls)
        build(p)
        assert len(calls) - before <= 1
    assert calls.count(1000003) == 1
    with pytest.raises(HeuristicsError):
        RankDistribution(7.0, 1, ((2, Fraction(1)),))  # 7 was accepted


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        a = monte_carlo_rank_distribution(3, 2000, seed=9)
        b = monte_carlo_rank_distribution(3, 2000, seed=9)
        c = monte_carlo_rank_distribution(3, 2000, seed=10)
        assert a == b
        assert a != c

    def test_converges_to_closed_form(self):
        model = predicted_rank_distribution(3)
        mc = monte_carlo_rank_distribution(3, 10 ** 5, seed=1)
        assert compare_distributions(model, mc) < Fraction(1, 50)

    def test_masses_sum_to_one_exactly(self):
        mc = monte_carlo_rank_distribution(5, 3000, seed=4)
        assert sum(q for _, q in mc.probs) + mc.residual() == 1

    def test_requires_trials(self):
        with pytest.raises(HeuristicsError):
            monte_carlo_rank_distribution(3, 0, seed=0)


class TestComparison:
    def test_distance_properties(self):
        a = predicted_rank_distribution(3)
        b = monte_carlo_rank_distribution(3, 5000, seed=3)
        assert compare_distributions(a, a) == 0
        assert compare_distributions(a, b) == compare_distributions(b, a)
        assert 0 <= compare_distributions(a, b) <= 1

    def test_rejects_support_mismatch(self):
        a = predicted_rank_distribution(3, kmax=50)
        b = predicted_rank_distribution(3, kmax=40)
        c = predicted_rank_distribution(5, kmax=50)
        with pytest.raises(HeuristicsError):
            compare_distributions(a, b)
        with pytest.raises(HeuristicsError):
            compare_distributions(a, c)
