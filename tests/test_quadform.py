"""Binary quadratic forms and class groups.

Oracles used here, all independent of the implementation under test:
  - reduction is checked by acting with random SL2(Z) words (which preserves
    the proper equivalence class by definition) and requiring the same
    canonical output;
  - class numbers for small discriminants are checked against an exhaustive
    representation count and against well-known values;
  - genus theory is checked against a direct ambiguous-form count;
  - the listing of one discriminant's reduced forms, and the sieve of the
    reduced forms of a window kept here as an oracle, are checked against
    the per-discriminant enumeration they replaced, and the
    fundamental-discriminant sieve against the per-value definition
    `is_fundamental`;
  - the prime table, trial division and `is_fundamental` are checked
    against sympy's primes and factorisation, which are test-only.
"""

import hashlib
import random
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkit import abgroup, quadform
from capkit.abgroup import abelian_structure
from capkit.quadform import (ClassGroupStructure, Discriminant, QuadForm,
                             QuadFormError, _compose_raw, _principal_raw,
                             _mul, _reduce_raw, _reduced_forms,
                             class_group_structure, class_group_structures,
                             class_number, compose, enumerate_reduced,
                             fundamental_discriminants, genus_two_rank,
                             inverse, is_discriminant, is_fundamental, p_rank,
                             prime_factors, principal_form, reduce_form)
from form_oracles import _compose_raw as oracle_compose
from form_oracles import _solve_linmod

# h(D) for small |D|, standard table values
KNOWN_CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2,
    -23: 3, -24: 2, -31: 3, -35: 2, -39: 4, -40: 2, -43: 1, -47: 5,
    -56: 4, -68: 4, -71: 7, -84: 4, -95: 8, -163: 1, -231: 12, -427: 2,
}


def sl2_translate(form, m):
    """(a,b,c) . T^m where T = [[1,m],[0,1]]: x -> x + m y."""
    a, b, c = form
    return (a, b + 2 * a * m, a * m * m + b * m + c)


def sl2_flip(form):
    """(a,b,c) . S where S = [[0,-1],[1,0]]."""
    a, b, c = form
    return (c, -b, a)


def random_equivalent(form, rng, steps=8):
    for _ in range(steps):
        if rng.random() < 0.5:
            form = sl2_translate(form, rng.randint(-4, 4))
        else:
            form = sl2_flip(form)
    return form


def form_disc(t):
    a, b, c = t
    return b * b - 4 * a * c


small_discs = st.integers(-800, -3).filter(lambda v: v % 4 in (0, 1))


class TestPredicates:
    def test_discriminant_predicate(self):
        assert is_discriminant(-3) and is_discriminant(-4)
        assert not is_discriminant(-5) and not is_discriminant(5)
        assert not is_discriminant(0)

    def test_fundamental_predicate(self):
        for v in (-3, -4, -7, -8, -11, -15, -20, -23, -24):
            assert is_fundamental(v)
        for v in (-12, -16, -27, -28, -32, -75, -99):
            assert not is_fundamental(v)

    def test_prime_factors(self):
        assert prime_factors(1) == []
        assert prime_factors(12) == [2, 3]
        assert prime_factors(85099) == [7, 12157]
        assert prime_factors(62632) == [2, 7829]

    def test_discriminant_validation(self):
        with pytest.raises(QuadFormError):
            Discriminant(-5)
        with pytest.raises(QuadFormError):
            Discriminant(4)

    # a discriminant, a coefficient and a bound are ints: -23.0 is refused
    # before isqrt or a slice meets it
    def test_discriminant_must_be_an_int(self):
        for value in (-23.0, -3.5, "-23"):
            with pytest.raises(QuadFormError, match="must be an int"):
                Discriminant(value)

    def test_form_coefficients_must_be_ints(self):
        for coefficients in ((1.0, 1, 6), (1, 1.0, 6), (1, 1, 6.0)):
            with pytest.raises(QuadFormError, match="must be ints"):
                QuadForm(*coefficients)

    def test_form_must_be_positive_definite(self):
        # a <= 0, or a discriminant b^2 - 4ac that is not negative
        for coefficients in ((0, 1, 1), (-1, 1, -1), (-1, 0, 0), (1, 2, 1),
                             (1, 3, 1), (1, 0, 0)):
            with pytest.raises(QuadFormError,
                               match="^form must be positive definite$"):
                QuadForm(*coefficients)

    def test_sieve_bounds_must_be_ints(self):
        for lo, hi in ((-100.0, -3), (-100, -3.0)):
            with pytest.raises(QuadFormError, match="must be ints"):
                fundamental_discriminants(lo, hi)

    def test_predicates_answer_false_for_a_non_int(self):
        for value in (-23.0, -4.0, -3.5, "-23", None):
            assert not is_discriminant(value)
            assert not is_fundamental(value)
        with pytest.raises(abgroup.AbgroupError, match="is not an int"):
            prime_factors(23.0)


class TestReduction:
    @given(small_discs, st.data())
    @settings(max_examples=120, deadline=None)
    def test_sl2_orbit_has_one_reduced_form(self, dv, data):
        D = Discriminant(dv)
        forms = enumerate_reduced(D)
        f = data.draw(st.sampled_from(forms))
        seed = data.draw(st.integers(0, 10 ** 6))
        moved = random_equivalent(f.as_tuple(), random.Random(seed))
        assert form_disc(moved) == dv
        back = reduce_form(QuadForm(*moved), D)
        assert back == f
        assert back.is_reduced

    def test_reduced_forms_are_fixed_points(self):
        D = Discriminant(-47)
        for f in enumerate_reduced(D):
            assert reduce_form(f, D) == f

    def test_grid_of_forms_reduces_consistently(self):
        # every positive definite (a, b, c) of a grid that holds the edges
        # a = c, b = +-a and b = 0: its reduction is reduced, keeps the
        # discriminant and is shared with the equivalent (c, -b, a) and
        # (a, b + 2a, a + b + c)
        for a in range(1, 31):
            for b in range(-60, 61):
                for c in range(b * b // (4 * a) + 1, 61):
                    f = _reduce_raw(a, b, c)
                    assert QuadForm(*f).is_reduced, (a, b, c)
                    assert form_disc(f) == b * b - 4 * a * c, (a, b, c)
                    assert _reduce_raw(c, -b, a) == f, (a, b, c)
                    assert _reduce_raw(a, b + 2 * a, a + b + c) == f, (a, b, c)

    def test_principal_form(self):
        assert principal_form(Discriminant(-4)).as_tuple() == (1, 0, 1)
        assert principal_form(Discriminant(-23)).as_tuple() == (1, 1, 6)


class TestEnumeration:
    def test_known_class_numbers(self):
        for dv, h in KNOWN_CLASS_NUMBERS.items():
            assert class_number(Discriminant(dv)) == h, dv

    @given(small_discs)
    @settings(max_examples=80, deadline=None)
    def test_enumeration_is_exhaustive(self, dv):
        # direct double-loop over the reduction domain, primitive forms only
        found = set()
        a = 1
        while 4 * a * a <= 3 * (-dv):
            for b in range(-a, a + 1):
                num = b * b - dv
                if num % (4 * a) == 0:
                    c = num // (4 * a)
                    if c >= a and gcd(gcd(a, b), c) == 1:
                        if not (b < 0 and (a == -b or a == c)):
                            found.add((a, b, c))
            a += 1
        assert found == {f.as_tuple() for f in enumerate_reduced(Discriminant(dv))}


class TestComposition:
    @given(small_discs, st.data())
    @settings(max_examples=100, deadline=None)
    def test_group_axioms_spotwise(self, dv, data):
        D = Discriminant(dv)
        forms = enumerate_reduced(D)
        f = data.draw(st.sampled_from(forms))
        g = data.draw(st.sampled_from(forms))
        h = data.draw(st.sampled_from(forms))
        e = reduce_form(principal_form(D), D)
        assert compose(f, e, D) == f
        assert compose(f, g, D) == compose(g, f, D)
        assert compose(f, inverse(f, D), D) == e
        assert compose(compose(f, g, D), h, D) == compose(f, compose(g, h, D), D)
        assert compose(f, g, D) in forms

    def test_composition_of_equal_forms(self):
        # the a1 = a2 case exercises the gcd(b, a) | c corner
        D = Discriminant(-84)
        f = QuadForm(2, 2, 11)
        sq = compose(f, f, D)
        assert sq.disc == -84
        assert sq == reduce_form(sq, D)

    def test_disc_mismatch_rejected(self):
        with pytest.raises(QuadFormError):
            compose(QuadForm(1, 0, 1), QuadForm(1, 1, 6), Discriminant(-4))

    def test_mul_matches_the_congruence_oracle(self):
        # every pair of primitive reduced forms of every |D| <= 1000
        discs = _discs_in(-1000, -3)
        for dv, forms in _reduced_forms_in(discs).items():
            for f in forms:
                for g in forms:
                    assert _mul(f, g) == \
                        _reduce_raw(*oracle_compose(f, g, dv)), (dv, f, g)

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_mul_matches_the_oracle_on_deep_forms(self, k):
        # seeded forms near -10^k, unreduced, of one fundamental and one
        # non-fundamental D: f g, f f and f f^-1 = 1
        rng = random.Random(k)
        lo = rng.randrange(-10 ** k, -10 ** k + 10 ** 4)
        discs = _discs_in(lo, lo + 200)
        for dv in (next(d for d in discs if is_fundamental(d)),
                   next(d for d in discs if not is_fundamental(d))):
            forms = _seeded_forms(dv, rng, 40)
            one = _principal_raw(dv)
            for f, g in zip(forms, forms[1:]):
                for x, y in ((f, g), (f, f)):
                    assert _reduce_raw(*_compose_raw(x, y)) == \
                        _reduce_raw(*oracle_compose(x, y, dv)), (dv, x, y)
                a, b, c = f
                assert _mul(_reduce_raw(*f), _reduce_raw(a, -b, c)) == one
                assert _reduce_raw(*oracle_compose(f, (a, -b, c), dv)) == one

    def test_compose_matches_the_oracle_on_imprimitive_forms(self):
        # every pair of reduced forms of |D| <= 1000 that holds a form
        # e (a', b', c') with e > 1, through the public compose
        discs = _discs_in(-1000, -3)
        for dv, forms in _reduced_forms_in(discs, primitive=False).items():
            D = Discriminant(dv)
            for f in forms:
                for g in forms:
                    if gcd(*f) > 1 or gcd(*g) > 1:
                        assert compose(QuadForm(*f), QuadForm(*g), D) \
                            .as_tuple() == \
                            _reduce_raw(*oracle_compose(f, g, dv)), (dv, f, g)


class TestStructure:
    def test_structures_of_known_groups(self):
        cases = {
            -3: (), -23: (3,), -47: (5,), -71: (7,),
            -39: (4,), -95: (8,), -84: (2, 2), -480: (2, 2, 2),
            # -3896 = -8 * 487 has 2-rank 1 by genus theory, which rules
            # out the other order-36 shapes with even part of rank 2
            -3896: (3, 12), -12451: (5, 5),
        }
        for dv, invs in cases.items():
            s = class_group_structure(Discriminant(dv))
            assert s.invariant_factors == invs, dv
            assert s.order == class_number(Discriminant(dv))

    def test_generators_have_invariant_orders(self):
        D = Discriminant(-3896)
        s = class_group_structure(D)
        e = reduce_form(principal_form(D), D)
        for g, d in zip(s.generators, s.invariant_factors):
            acc = e
            for k in range(1, d + 1):
                acc = compose(acc, g, D)
                if k < d:
                    assert acc != e
            assert acc == e

    @pytest.mark.parametrize("dv", [-3299, -3900])  # fundamental, 25 | -3900
    def test_a_single_discriminant_lists_its_forms_once(self, monkeypatch,
                                                         dv):
        # the forms listed for h are the structure's forms, from which the
        # generators are chosen
        listed = []
        listing = quadform._reduced_forms
        monkeypatch.setattr(quadform, "_reduced_forms",
                            lambda D: listed.append(D) or listing(D))
        s = class_group_structure(Discriminant(dv))
        assert len(s.generators) == len(s.invariant_factors)
        assert listed == [dv]
        assert s.forms == [f for f in _enumerate_reduced_raw(dv)
                           if gcd(*f) == 1]

    def test_p_rank(self):
        assert p_rank(Discriminant(-12451), 5) == 2
        assert p_rank(Discriminant(-12451), 3) == 0
        assert p_rank(Discriminant(-3299), 3) == 2  # Cl = C3 x C9
        assert p_rank(Discriminant(-3), 2) == 0


class TestGenusTheory:
    def ambiguous_count(self, dv):
        """Forms of order dividing 2 among the reduced forms: b = 0, a = b,
        or a = c; counts 2^(two-rank) directly."""
        return sum(1 for f in enumerate_reduced(Discriminant(dv))
                   if f.b == 0 or f.a == f.b or f.a == f.c)

    @given(st.sampled_from(fundamental_discriminants(-3000, -3)))
    @settings(max_examples=80, deadline=None)
    def test_two_rank_equals_ambiguous_form_count(self, dv):
        r = genus_two_rank(Discriminant(dv))
        assert 2 ** r == self.ambiguous_count(dv)
        assert r == p_rank(Discriminant(dv), 2)

    def test_requires_fundamental(self):
        with pytest.raises(QuadFormError):
            genus_two_rank(Discriminant(-12))

    def test_fundamental_discriminant_listing(self):
        got = fundamental_discriminants(-30, -3)
        assert got == [-30 + i for i in range(28)
                       if is_fundamental(-30 + i)]
        assert -23 in got and -12 not in got
        assert fundamental_discriminants(-3, -100) == []


def _enumerate_reduced_raw(D):
    """Oracle: the per-discriminant enumeration over all (a, b) with
    a <= sqrt(|D|/3), O(|D|) work, that the range sieve replaced."""
    out = []
    amax = isqrt(-D // 3)
    for a in range(1, amax + 1):
        fa = 4 * a
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % fa:
                continue
            c = num // fa
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue  # excluded boundary representative
            if gcd(gcd(a, b), c) != 1:
                continue  # imprimitive forms are not classes of the order
            out.append((a, b, c))
    return sorted(out)


def _seeded_forms(dv, rng, count):
    """`count` primitive forms (a, +-b, c) of dv, not reduced in general:
    a random a <= 2000 and the least b >= 0 with b^2 = dv (mod 4a), if
    there is one."""
    forms = []
    while len(forms) < count:
        a = rng.randrange(1, 2001)
        b = next((b for b in range(dv & 1, 2 * a, 2)
                  if (b * b - dv) % (4 * a) == 0), None)
        if b is not None and gcd(a, b, (b * b - dv) // (4 * a)) == 1:
            forms.append((a, rng.choice((b, -b)), (b * b - dv) // (4 * a)))
    return forms


def _discs_in(lo, hi):
    return [d for d in range(lo, hi + 1) if is_discriminant(d)]


def _reduced_forms_in(discs, primitive=True):
    """Oracle: the reduced forms of each discriminant in `discs` (ascending,
    all negative), only the primitive ones unless `primitive` is false, by
    one sieve over lo = discs[0]..hi = discs[-1], the window sieve that
    scans used before the counting sieve: for each of the `_pairs`,
    (a, b, c), plus (a, -b, c) if 0 < b < a != c, go to the bucket of
    b^2 - 4ac, in (a, b) order."""
    lo, hi = discs[0], discs[-1]
    buckets = {d: [] for d in discs}
    get = buckets.get
    for a, c, low, b0, b1 in quadform._pairs(lo, hi):
        fac = low - lo
        g = gcd(a, c) if primitive else 1
        for b in range(b0, b1 + 1):
            forms = get(b * b - fac)
            if forms is not None and (g == 1 or gcd(g, b) == 1):
                forms.append((a, b, c))
                # (a, -a, c) and (a, -b, a) are not reduced
                if 0 < b < a != c:
                    forms.append((a, -b, c))
    for forms in buckets.values():
        forms.sort()
    return buckets


class TestRangeSieve:
    def test_every_small_discriminant(self):
        discs = _discs_in(-3000, -3)
        buckets = _reduced_forms_in(discs)
        assert sorted(buckets) == discs
        for d in discs:
            want = _enumerate_reduced_raw(d)
            assert buckets[d] == want, d
            assert _reduced_forms(d) == want, d

    def test_chunks_in_the_table_range(self):
        rng = random.Random(3)
        # 256-wide chunks at both ends of the table range, whose end points
        # are discriminants, then random chunks with lo = 1 mod 4, which
        # makes both of their ends discriminants
        chunks = [(-85099, -85099 + 255), (-12451 - 255, -12451)]
        for _ in range(2):
            lo = rng.randrange(-85099, -12451 - 255) // 4 * 4 + 1
            chunks.append((lo, lo + 255))
        for lo, hi in chunks:
            assert -85099 <= lo and hi <= -12451
            discs = _discs_in(lo, hi)
            if lo % 4 == 1:
                assert discs[0] == lo and discs[-1] == hi
            buckets = _reduced_forms_in(discs)
            for d in discs:
                assert buckets[d] == _enumerate_reduced_raw(d), d
            # the oracle sieves only the discriminants it is given
            sparse = fundamental_discriminants(lo, hi)[1:]
            assert _reduced_forms_in(sparse) == {d: buckets[d] for d in sparse}

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 17, 64, 255, 256, 257,
                                       1000])
    def test_chunk_widths(self, width):
        # the c range of each a and the isqrt bounds of b move with the
        # window: at width W, W/4a crosses 1 inside the a loop.  One window
        # starts at a seeded discriminant in [-20000, -3], one near -85000
        rng = random.Random(width)
        for start in (rng.randrange(-20000, -2 - width),
                      rng.randrange(-85099, -84000)):
            lo = start // 4 * 4 + rng.randrange(2)
            discs = _discs_in(lo, lo + width - 1)
            assert discs[0] == lo and discs[-1] <= -3
            buckets = _reduced_forms_in(discs)
            assert sorted(buckets) == discs
            for d in discs:
                assert buckets[d] == _enumerate_reduced_raw(d), (width, d)
            sparse = fundamental_discriminants(lo, lo + width - 1)
            if sparse:
                assert _reduced_forms_in(sparse) == \
                    {d: buckets[d] for d in sparse}

    def test_no_discriminants_give_no_structures(self):
        assert class_group_structures([]) == []

    def test_batched_structures_match_single(self):
        discs = fundamental_discriminants(-82300, -82000)
        for s in class_group_structures(discs):
            one = class_group_structure(s.discriminant)
            assert (s.order, s.invariant_factors, s.generators) == \
                (one.order, one.invariant_factors, one.generators)


class TestCountingSieve:
    @pytest.mark.parametrize("top", [-10 ** 5, -10 ** 6, -10 ** 7])
    def test_counts_match_the_forms_sieve(self, top):
        # a seeded 256-wide window below each top: every integer's count is
        # its number of reduced forms, primitive or not; a fundamental D has
        # no imprimitive form, so its count is h(D); and the ambiguous forms
        # of each fundamental D, in (a, b) order
        rng = random.Random(top)
        lo = top - rng.randrange(4096) - 255
        discs = fundamental_discriminants(lo, lo + 255)
        counts, ambiguous = quadform._count_forms(discs)
        buckets = _reduced_forms_in(_discs_in(discs[0], discs[-1]),
                                    primitive=False)
        assert len(counts) == discs[-1] - discs[0] + 1
        for i, n in enumerate(counts):
            assert n == len(buckets.get(discs[0] + i, ())), discs[0] + i
        assert any(gcd(*f) > 1 for forms in buckets.values() for f in forms)
        for d in discs:
            assert counts[d - discs[0]] == \
                sum(1 for f in buckets[d] if gcd(*f) == 1), d
            assert ambiguous[d] == [(a, b, c) for a, b, c in buckets[d]
                                    if b == 0 or a == b or a == c], d

    def test_the_counting_sieve_tests_no_primitivity(self, monkeypatch):
        def no_gcd(*args):
            raise AssertionError("gcd called by the counting sieve")

        discs = fundamental_discriminants(-82300, -82000)
        want = quadform._count_forms(discs)
        monkeypatch.setattr(quadform, "gcd", no_gcd)
        assert quadform._count_forms(discs) == want

    def test_prime_forms_generate_the_class_group(self):
        for dv in fundamental_discriminants(-3000, -3):
            forms = list(quadform._prime_forms(dv))
            assert forms == _prime_forms_by_search(dv), dv
            # the closure of the prime forms under composition
            one = _principal_raw(dv)
            span, new = {one}, [one]
            while new:
                new = [z for z in {_reduce_raw(*oracle_compose(x, f, dv))
                                   for x in new for f in forms}
                       if z not in span]
                span.update(new)
            assert len(span) == class_number(Discriminant(dv)), dv

    def test_deep_chunk_matches_greedy(self):
        rng = random.Random(6)
        lo = rng.randrange(-10 ** 6 - 5000, -10 ** 6 + 5000)
        discs = fundamental_discriminants(lo, lo + 255)
        buckets = _reduced_forms_in(discs)
        for s in class_group_structures(discs):
            dv = s.discriminant.value
            assert s.order == len(buckets[dv])
            assert s.invariant_factors == \
                _greedy_invariants(dv, buckets[dv]), dv

    def test_a_scan_never_enumerates_forms(self, monkeypatch):
        def no_forms(Dv):
            raise AssertionError("reduced forms enumerated")

        discs = fundamental_discriminants(-82300, -82000)
        with monkeypatch.context() as m:
            m.setattr(quadform, "_reduced_forms", no_forms)
            structures = class_group_structures(discs)
        assert [s.order for s in structures] == \
            [len(_enumerate_reduced_raw(d)) for d in discs]
        # the forms, and the generators chosen over them, come on first read
        s = max(structures, key=lambda s: len(s.invariant_factors))
        assert "forms" not in vars(s)
        assert s.invariant_factors == (2, 2, 2, 8)
        assert len(s.generators) == 4
        assert s.generators == class_group_structure(s.discriminant).generators
        assert s.forms == _enumerate_reduced_raw(s.discriminant.value)

    def test_a_failed_cyclic_test_is_not_recomputed(self, monkeypatch):
        # C3 x C12: the 3-part C3 x C3 fails the cyclic test on the fourth
        # powers, and the span starts from them, so no form is raised to
        # the same power twice
        powers = []
        real = quadform.op_power

        def recording(g, k, op, identity):
            powers.append((g, k))
            return real(g, k, op, identity)

        # the span powers its elements through abgroup's binding
        monkeypatch.setattr(quadform, "op_power", recording)
        monkeypatch.setattr(abgroup, "op_power", recording)
        s = class_group_structure(Discriminant(-3896))
        assert s.invariant_factors == (3, 12)
        assert ((2, 0, 487), 4) in powers   # the first prime form
        assert len(powers) == len(set(powers))

    def test_forms_that_do_not_span_raise(self):
        # C3 x C3 with a source that holds one prime form only
        dv = -4027
        forms = quadform._Drawn(_prime_forms_by_search(dv)[:1])
        with pytest.raises(QuadFormError, match="do not span"):
            quadform._part_from_forms(forms, 1, 3, 9, dv)


class TestFundamentalSieve:
    def test_matches_definition(self):
        lo, hi = -20000, -3
        assert fundamental_discriminants(lo, hi) == \
            [d for d in range(lo, hi + 1) if is_fundamental(d)]

    @pytest.mark.parametrize("segment", [16, 97, 1000])
    def test_segment_edges(self, segment):
        # A scan sieves one chunk at a time: sieving consecutive pieces of
        # `segment` integers must join to the one pass over the whole range.
        for lo, hi in ((-5000, -3), (-3001, -2000), (-17, -3),
                       (-10 ** 8, -10 ** 8 + 300)):
            expected = [d for d in range(lo, hi + 1) if is_fundamental(d)]
            assert fundamental_discriminants(lo, hi) == expected, (lo, hi)
            pieces = []
            for start in range(lo, hi + 1, segment):
                pieces += fundamental_discriminants(
                    start, min(start + segment - 1, hi))
            assert pieces == expected, (lo, hi, segment)

    def test_bounds(self):
        assert fundamental_discriminants(-4, -3) == [-4, -3]
        assert fundamental_discriminants(-10, 5) == [-8, -7, -4, -3]
        with pytest.raises(QuadFormError):
            fundamental_discriminants(-10 ** 8 - 1, -3)


def _fundamental_by_sympy(dv):
    """The definition on sympy's factorisation: D = 1 mod 4 squarefree, or
    D = 4m with m = 2, 3 mod 4 squarefree."""
    import sympy
    if dv % 4 == 1:
        m = dv
    elif dv % 4 == 0 and (dv // 4) % 4 in (2, 3):
        m = dv // 4
    else:
        return False
    return all(e == 1 for e in sympy.factorint(-m).values())


class TestPrimeTable:
    # the fundamental sieve clears p^2 for each odd prime p <= sqrt(|lo|),
    # and the prime forms read the l <= sqrt(|D|/3): for |D| <= MAX_ABS_DISC
    # both stay inside abgroup's one table
    def test_table_reaches_the_discriminant_bound(self):
        sympy = pytest.importorskip("sympy")
        assert abgroup.small_primes() == \
            list(sympy.primerange(2, isqrt(quadform.MAX_ABS_DISC) + 1))

    # the table ends at 9973; 10007^2 is the least n whose least prime
    # factor lies past it
    @pytest.mark.parametrize("n", [1, 2, 9973, 9973 ** 2, 9973 * 10007,
                                   10007, 99_999_989, 10 ** 8, 10 ** 8 + 7,
                                   10007 ** 2])
    def test_fundamental_matches_sympy_at_the_table_edges(self, n):
        pytest.importorskip("sympy")
        for dv in (-n, -4 * n):
            assert is_fundamental(dv) == _fundamental_by_sympy(dv), dv

    def test_seeded_discriminants_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(36)
        discs = [d for d in (rng.randint(-10 ** 8, -3) for _ in range(400))
                 if is_discriminant(d)]
        for dv in discs:
            assert prime_factors(dv) == sympy.primefactors(-dv), dv
            assert is_fundamental(dv) == _fundamental_by_sympy(dv), dv
            if is_fundamental(dv):
                assert genus_two_rank(Discriminant(dv)) == \
                    len(sympy.primefactors(-dv)) - 1, dv


# Generators and invariant factors recorded from the per-discriminant
# enumerator before the range sieve replaced it.
PINNED_NEAR_82000 = {
    -82056: ((2, 2, 32), ((2, 0, 10257), (13, 0, 1578), (5, -2, 4103))),
    -82055: ((324,), ((78, 77, 282),)),
    -82052: ((2, 64), ((146, 146, 177), (3, -2, 6838))),
    -82051: ((47,), ((5, -3, 4103),)),
    -82047: ((2, 60), ((3, 3, 6838), (78, 3, 263))),
    -82043: ((78,), ((39, 13, 527),)),
    -82040: ((2, 2, 48), ((2, 0, 10255), (5, 0, 4102), (86, 84, 259))),
    -82039: ((185,), ((2, -1, 10255),)),
    -82036: ((90,), ((10, 2, 2051),)),
    -82031: ((371,), ((2, -1, 10254),)),
    -82027: ((30,), ((43, -19, 479),)),
    -82024: ((82,), ((5, -4, 4102),)),
    -82023: ((2, 68), ((3, 3, 6836), (103, 45, 204))),
    -82020: ((2, 2, 18), ((3, 0, 6835), (5, 0, 4101), (13, -6, 1578))),
    -82019: ((102,), ((83, -63, 259),)),
    -82015: ((2, 62), ((5, 5, 4102), (2, -1, 10252))),
    -82011: ((68,), ((5, -3, 4101),)),
    -82007: ((259,), ((2, -1, 10251),)),
    -82004: ((2, 2, 56), ((2, 2, 10251), (83, 0, 247), (3, -2, 6834))),
    -82003: ((47,), ((7, -3, 2929),)),
}


class TestPinnedStructures:
    def test_generators_near_82000(self):
        discs = sorted(PINNED_NEAR_82000)
        assert discs == fundamental_discriminants(-82056, -82003)
        for s in class_group_structures(discs):
            invs, gens = PINNED_NEAR_82000[s.discriminant.value]
            assert s.invariant_factors == invs
            assert tuple(g.as_tuple() for g in s.generators) == gens

    @pytest.mark.parametrize("dv", [-82056, -82040, -3896])
    def test_coords_are_a_homomorphism(self, dv):
        forms = _enumerate_reduced_raw(dv)

        def op(x, y):
            return _reduce_raw(*_compose_raw(x, y))

        res = abelian_structure(forms, op, _principal_raw(dv))
        G = res.group
        coords = {f: res.coords(f) for f in forms}
        assert sorted(coords.values()) == sorted(G.elements())
        for i, g in enumerate(res.generators):
            assert coords[g] == tuple(int(j == i) for j in range(G.ngens))
        rng = random.Random(dv)
        for _ in range(200):
            x, y = rng.choice(forms), rng.choice(forms)
            assert coords[op(x, y)] == G.add(coords[x], coords[y])


def _greedy_invariants(dv, forms):
    """Oracle: the greedy selection over every form, the path that the
    Sylow-wise structure replaced and that `generators` still takes."""
    def op(x, y):
        return _reduce_raw(*oracle_compose(x, y, dv))
    return abelian_structure(forms, op, _principal_raw(dv)).group.invariant_factors


def _prime_forms_by_search(dv):
    """Oracle: the reduced prime forms (l, b, c) in increasing l, over the
    primes l <= sqrt(|dv|/3) for which some b in [0, l] has b^2 = dv
    (mod 4l), with the least such b."""
    out = []
    for l in range(2, isqrt(-dv // 3) + 1):
        if all(l % p for p in range(2, isqrt(l) + 1)):
            for b in range(l + 1):
                if (b * b - dv) % (4 * l) == 0:
                    out.append(_reduce_raw(l, b, (b * b - dv) // (4 * l)))
                    break
    return out


def _naive_power(f, k, dv):
    """Oracle: f^k by k compositions with the principal form first."""
    y = _principal_raw(dv)
    for _ in range(k):
        y = _reduce_raw(*oracle_compose(y, f, dv))
    return y


class TestSylowStructure:
    def test_every_small_discriminant_matches_greedy(self):
        discs = _discs_in(-3000, -3)
        for s in class_group_structures(discs):
            dv = s.discriminant.value
            assert s.invariant_factors == \
                _greedy_invariants(dv, _reduced_forms(dv)), dv

    def test_table_range_chunks_match_greedy(self):
        rng = random.Random(7)
        for _ in range(4):
            lo = rng.randrange(-85099, -12451 - 255)
            discs = _discs_in(lo, lo + 255)
            buckets = _reduced_forms_in(discs)
            for s in class_group_structures(discs):
                dv = s.discriminant.value
                assert s.order == len(buckets[dv])
                assert s.invariant_factors == \
                    _greedy_invariants(dv, buckets[dv]), dv

    @pytest.mark.parametrize("dv, h", [(-47, 5), (-23, 3), (-71, 7),
                                       (-3, 1), (-82051, 47)])
    def test_squarefree_class_number_makes_no_composition(self, monkeypatch,
                                                          dv, h):
        calls = []
        real = quadform._compose_raw

        def counting(f1, f2):
            calls.append((f1, f2))
            return real(f1, f2)

        monkeypatch.setattr(quadform, "_compose_raw", counting)
        s = class_group_structure(Discriminant(dv))
        assert s.order == h and s.invariant_factors == ((h,) if h > 1 else ())
        assert calls == []
        # reading the generators runs the greedy selection, which composes
        assert len(s.generators) == len(s.invariant_factors)
        assert bool(calls) == (h > 1)

    def test_a_scan_never_computes_generators(self, monkeypatch):
        results = []
        real = quadform.abelian_structure

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(quadform, "abelian_structure", recording)
        structures = class_group_structures(fundamental_discriminants(-82300,
                                                                      -82000))

        def forced(s, q):
            # a q-part of order q^v and rank 1, v - 1 or v, where the rank is
            # known for v = 1 and, by genus theory, for q = 2; a 2-part
            # whose 4-rank r4 (read off the greedy structure) gives r4 = 1
            # or rest = v - (r - r4) in {2 r4, 2 r4 + 1}; or an odd q-part
            # whose first nontrivial (h / q^v)-th power of a prime form has
            # order q^v
            dv, h = s.discriminant.value, s.order
            v = 1
            while h % q ** (v + 1) == 0:
                v += 1
            r = genus_two_rank(s.discriminant) if q == 2 else \
                1 if v == 1 else None
            if r in (1, v - 1, v):
                return True
            if q == 2:
                r4 = sum(1 for d in _greedy_invariants(dv, s.forms)
                         if d % 4 == 0)
                rest = v - (r - r4)
                return r4 == 1 or rest in (2 * r4, 2 * r4 + 1)
            one = _principal_raw(dv)
            y = next(y for y in (_naive_power(f, h // q ** v, dv)
                                 for f in _prime_forms_by_search(dv))
                     if y != one)
            return _naive_power(y, q ** (v - 1), dv) != one

        # one span per Sylow subgroup that no rule decides, and no more
        assert len(results) == sum(1 for s in structures
                                   for q in prime_factors(s.order)
                                   if not forced(s, q)) > 0
        assert not any("generators" in vars(r) for r in results)
        assert not any("generators" in vars(s) for s in structures)
        s = structures[0]
        assert len(s.generators) == len(s.invariant_factors)
        assert "generators" in vars(s) and "generators" in vars(results[-1])

    # Discriminants whose Sylow parts all have rank r in {1, v - 1, v} for
    # their order q^v or a 2-part forced by its 4-rank r4, and ones whose
    # 2-part is not, found by search over [-12000, -3] and the table range
    @pytest.mark.parametrize("dv, invs, forced", [
        (-95, (8,), True),               # r = 1, v >= 2
        (-1751, (48,), True),
        (-84, (2, 2), True),             # r = v
        (-2415, (2, 2, 10), True),
        (-4935, (2, 2, 12), True),       # r = v - 1
        (-82047, (2, 60), True),
        (-999, (24,), True),             # not fundamental
        (-1760, (2, 2, 6), True),
        (-5775, (2, 2, 12), True),
        (-3615, (2, 24), True),          # 2-part C2 x C8: r = 2, r4 = 1
        (-2379, (4, 4), True),           # C4 x C4: r4 = 2, rest = 4
        (-6052, (4, 4), True),
        (-5795, (4, 8), True),           # C4 x C8: r4 = 2, rest = 5
        (-4895, (4, 16), False),         # C4 x C16: r4 = 2, rest = 6
        (-1088, (2, 8), False),          # not fundamental, r = 2, v = 4
    ])
    def test_forced_parts_make_no_composition(self, monkeypatch, dv, invs,
                                              forced):
        calls = []
        real = quadform._compose_raw

        def counting(f1, f2):
            calls.append((f1, f2))
            return real(f1, f2)

        monkeypatch.setattr(quadform, "_compose_raw", counting)
        s = class_group_structure(Discriminant(dv))
        assert (calls == []) == forced
        assert s.invariant_factors == invs == \
            _greedy_invariants(dv, _reduced_forms(dv))

    def test_character_four_rank_matches_greedy(self, monkeypatch):
        chunks = [fundamental_discriminants(-3000, -3)]
        rng = random.Random(4)
        for _ in range(2):
            lo = rng.randrange(-10 ** 6 - 5000, -10 ** 6 + 5000)
            chunks.append(fundamental_discriminants(lo, lo + 255))
        for discs in chunks:
            buckets = _reduced_forms_in(discs)
            for dv in discs:
                invs = _greedy_invariants(dv, buckets[dv])
                assert quadform._four_rank(
                    dv, quadform._ambiguous(buckets[dv])) == \
                    sum(1 for d in invs if d % 4 == 0), dv
        # the characters are those of the maximal order only: the caller
        # leaves the 4-rank of any other order unread
        calls = []
        monkeypatch.setattr(quadform, "_four_rank",
                            lambda dv, forms: calls.append(dv))
        discs = [d for d in _discs_in(-3000, -3) if not is_fundamental(d)]
        buckets = _reduced_forms_in(discs)
        for d in discs:
            assert class_group_structure(Discriminant(d)).invariant_factors \
                == _greedy_invariants(d, buckets[d]), d
        assert calls == []

    def test_four_rank_is_read_for_fundamental_discriminants_only(
            self, monkeypatch):
        calls = []
        real = quadform._four_rank

        def recording(dv, forms):
            calls.append(dv)
            return real(dv, forms)

        monkeypatch.setattr(quadform, "_four_rank", recording)
        discs = _discs_in(-3000, -3)
        structures = class_group_structures(discs)
        assert calls and all(is_fundamental(d) for d in calls)

        def open_two_part(s):
            # rank r and order 2^v of the 2-part force it when r is 1,
            # v - 1 or v
            r = s.group.rank(2)
            v = (s.order & -s.order).bit_length() - 1
            return r not in (1, v - 1, v)

        # the chunk is mixed, and some of its non-fundamental D reach the
        # 2-part rule
        assert any(open_two_part(s) and not s.is_fundamental
                   for s in structures)
        monkeypatch.setattr(quadform, "_four_rank", real)
        assert structures == [class_group_structure(Discriminant(d))
                              for d in discs]

    @pytest.mark.parametrize("dv, invs, spans", [
        (-4027, (3, 3), 1),              # C3 x C3
        # C9, the first prime form whose cube is not 1 has order 3 in it
        (-10627, (9,), 1),
        (-199, (9,), 0),                 # C9, ... has order 9
    ])
    def test_odd_parts_of_order_q_squared(self, monkeypatch, dv, invs, spans):
        calls = []
        real = quadform.abelian_structure

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(quadform, "abelian_structure", recording)
        s = class_group_structure(Discriminant(dv))
        assert len(calls) == spans
        assert s.invariant_factors == invs == \
            _greedy_invariants(dv, _reduced_forms(dv))

    @pytest.mark.parametrize("dv, forms", [
        (-84, []),
        # three ambiguous forms: not a power of two
        (-84, [(1, 0, 21), (2, 2, 11), (3, 0, 7)]),
        # four ambiguous forms among six
        (-84, [(1, 0, 21), (2, 2, 11), (3, 0, 7), (5, 4, 5),
               (7, 3, 9), (7, -3, 9)]),
        # two forms, but the identity is the only ambiguous one
        (-23, [(1, 1, 6), (2, 1, 3)]),
    ])
    def test_inconsistent_form_lists_are_rejected(self, dv, forms):
        # h and the ambiguous forms, as the counting sieve passes them
        ambiguous = [(a, b, c) for a, b, c in forms
                     if b == 0 or a == b or a == c]
        with pytest.raises(QuadFormError, match="ambiguous"):
            class_group_structure(Discriminant(dv), (len(forms), ambiguous))

    def test_scan_outputs_are_pinned(self):
        # sha256 of "D h d1,d2,...\n" per fundamental D in the first 5,100
        # integers of the table range, recorded from the greedy path
        discs = fundamental_discriminants(-85099, -80000)
        text = "".join("%d %d %s\n" % (s.discriminant.value, s.order,
                                       ",".join(map(str, s.invariant_factors)))
                       for s in class_group_structures(discs))
        assert len(discs) == 1552
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "3fab93b22717f89309a90180719f944127cd2781eb7b8edc668b49b58d64dbd5"


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.integers(1, 10 ** 4))
@settings(max_examples=300, deadline=None)
def test_linear_congruence_solutions(a, b, m):
    solvable = any((a * x - b) % m == 0 for x in range(m))
    if not solvable:
        with pytest.raises(QuadFormError):
            _solve_linmod(a, b, m)
        return
    u, v = _solve_linmod(a, b, m)
    assert v == m // gcd(a, m) and 0 <= u < v
    assert [x for x in range(m) if (a * x - b) % m == 0] == \
        list(range(u, m, v))
