"""Polycyclic p-groups, transfer maps and transfer-kernel patterns.

Oracles:
  - collected multiplication is compared against explicit faithful models
    built in this file (modular arithmetic, unitriangular matrices over F_p,
    affine maps of Z/9), none of which go through the collection code;
  - the transfer is recomputed from the raw coset-product definition with a
    transversal chosen by a different rule, and compared modulo H';
  - the test-word consistency proof is compared, verdict for verdict,
    against an exhaustive check that the collected multiplication is a
    group law (|G|^2 product table, inverses, bijectivity, associativity)
    and against a per-element relator check on the same table; the overlap
    a rejection names is checked to be the first whose two sides differ;
  - the right-multiplication columns, filled by strided slices, are
    compared against a word-rewriting collector that rescans the whole
    letter list from the left after every rewrite;
  - inv, read off the columns by right collection, is compared with
    power(u, -1) = u^(|G| - 1), a product of forward multiplications;
  - a subgroup, held as its induced pcgs, is compared with the element-set
    oracles of pgroup_oracles.py: its closure by breadth-first search, the
    least element of each coset found by multiplying out H, and H' as the
    closure of commutators;
  - the index-p lattice, read off exponent functionals, is compared
    descriptor for descriptor with closure_lattice of pgroup_oracles.py,
    which closes G' and lifted kernel generators with PcGroup.subgroup.
"""

import hashlib
import itertools
import json
import random
import re
import time
from collections import Counter

import pytest

from capkit import pcgroup
from capkit.catalog import get_group, load_catalog
from capkit.gmodule import (catalog_relative_data, classify_growth,
                            make_relative_datum)
from capkit.pcgroup import (PcGroup, PresentationError, capitulation_type,
                            normalized_lines, schreier_transversal,
                            subgroups_index_p_above_derived, transfer)
from pgroup_oracles import (closure, closure_lattice, coset_minima,
                            derived_closure, greedy_generators, members)


# ---------------------------------------------------------------------------
# faithful models used as multiplication oracles
# ---------------------------------------------------------------------------

def mat_mul_mod(A, B, m):
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) % m
                       for col in zip(*B)) for row in A)


def check_against_model(G, images, model_mult, model_one):
    """images: model element per generator.  Requires the map
    g1^e1...gn^en -> prod images[i]^ei to be an injective homomorphism."""
    def phi(u):
        out = model_one
        for i, e in enumerate(G.exponents(u)):
            for _ in range(e):
                out = model_mult(out, images[i])
        return out

    seen = {}
    for u in G.elements():
        mu = phi(u)
        assert mu not in seen, "model not faithful at %s vs %s" % (u, seen.get(mu))
        seen[mu] = u
    for u in G.elements():
        for v in G.elements():
            assert phi(G.mult(u, v)) == model_mult(phi(u), phi(v))


class TestCollectionAgainstModels:
    def test_cyclic_c27_is_base_3_arithmetic(self):
        G = get_group("C27")
        check_against_model(G, [1, 3, 9],
                            lambda a, b: (a + b) % 27, 0)

    def test_c9_is_base_3_arithmetic(self):
        G = get_group("C9")
        check_against_model(G, [1, 3], lambda a, b: (a + b) % 9, 0)

    def test_heisenberg_matches_unitriangular_matrices(self):
        G = get_group("H27")
        I = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        E23 = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
        E12 = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
        E13 = ((1, 0, 1), (0, 1, 0), (0, 0, 1))

        def mm(A, B):
            return mat_mul_mod(A, B, 3)

        # the presentation's commutator convention in the model
        def comm(X, Y):
            Xi = next(A for A in all_unitriangular() if mm(A, X) == I)
            Yi = next(A for A in all_unitriangular() if mm(A, Y) == I)
            return mm(mm(Xi, Yi), mm(X, Y))

        def all_unitriangular():
            for a, b, c in itertools.product(range(3), repeat=3):
                yield ((1, a, b), (0, 1, c), (0, 0, 1))

        g1, g2, g3 = E23, E12, E13
        assert comm(g2, g1) == g3
        assert mm(mm(g1, g1), g1) == I
        check_against_model(G, [g1, g2, g3], mm, I)

    def test_m27_matches_affine_maps_of_z9(self):
        G = get_group("M27")
        # affine maps t -> m*t + c with m in {1, 4, 7}: a faithful model of
        # the order-27 group with an element of order 9
        def compose(f, g):
            # (f then g), matching left-to-right products
            (mf, cf), (mg, cg) = f, g
            return ((mf * mg) % 9, (cf * mg + cg) % 9)

        g1 = (1, 1)   # translation, order 9
        g2 = (4, 0)   # multiplication by 4, order 3
        g3 = (1, 3)   # translation by 3 = g1 cubed

        def inv(f):
            return next(h for h in itertools.product((1, 4, 7), range(9))
                        if compose(f, h) == (1, 0))

        comm = compose(compose(inv(g2), inv(g1)), compose(g2, g1))
        if comm != g3:  # the other composition convention
            def compose(f, g, _c=compose):  # noqa: F811
                return _c(g, f)
            comm = compose(compose(inv(g2), inv(g1)), compose(g2, g1))
        assert comm == g3
        check_against_model(G, [g1, g2, g3], compose, (1, 0))

    def test_collect_rewrites_heisenberg_words(self):
        G = get_group("H27")
        assert G.exponents(G.collect(((1, 1), (0, 1)))) == (1, 1, 1)
        assert G.exponents(G.collect(((1, 1), (0, 2)))) == (2, 1, 2)
        assert G.exponents(G.collect(((0, -1),))) == (2, 0, 0)
        assert G.collect(()) == G.identity

    @pytest.mark.parametrize("letter, part", [
        ((0, 1.5), "not a pair of integers"),
        ((0, "2"), "not a pair of integers"),
        ((0,), r"not a \(generator, exponent\) pair"),
        ((3, 1), "out of range"),
    ])
    def test_collect_checks_its_letters(self, letter, part):
        # the first three raised a bare TypeError or ValueError
        with pytest.raises(PresentationError, match=part):
            get_group("H27").collect(((1, 1), letter))


class TestPresentationValidation:
    def test_rejects_out_of_range_tails(self):
        with pytest.raises(PresentationError):
            PcGroup(3, 2, {0: ((0, 1),)}, {})
        with pytest.raises(PresentationError):
            PcGroup(3, 3, {}, {(1, 0): ((1, 1),)})

    @pytest.mark.parametrize("key", [2, 5, -1])
    def test_rejects_power_tail_keys_outside_the_generators(self, key):
        # {5: ...} on two generators used to be dropped, leaving C3 x C3
        with pytest.raises(PresentationError,
                           match=r"power tail key %d is not a generator "
                                 r"index 0\.\.1" % key):
            PcGroup(3, 2, {key: ((1, 1),)}, {})

    @pytest.mark.parametrize("p", [4, 1, 0, -3, 2.0])
    def test_rejects_a_p_that_is_not_a_prime(self, p):
        # p = 4 used to build a group "of order 16", p = 1 one "of order 1"
        with pytest.raises(PresentationError, match="is not a prime"):
            PcGroup(p, 2, {}, {})

    @pytest.mark.parametrize("tails", [[()], [(), (), ()]])
    def test_rejects_a_power_tail_list_of_the_wrong_length(self, tails):
        # a short list used to raise IndexError, a long one was truncated
        with pytest.raises(PresentationError, match="power tails for 2 "
                                                    "generators"):
            PcGroup(3, 2, tails, {})

    @pytest.mark.parametrize("ngens", [-1, 2.0])
    def test_rejects_a_bad_generator_count(self, ngens):
        # -1 used to raise a bare ValueError from itertools.product
        with pytest.raises(PresentationError, match="not a count"):
            PcGroup(3, ngens, {}, {})

    @pytest.mark.parametrize("power, conj, part", [
        ({}, {(1,): ((1, 1),)}, r"commutator key \(1,\) "),
        ({0: ((1,),)}, {}, "power tail of g1 "),
        ({0: ((1, 1.0),)}, {}, r"power tail of g1 .* \(1, 1\.0\)$"),
        ({0: 5}, {}, "power tail of g1 "),
        ({}, {(0, 1): ()}, r"commutator key \(0, 1\) "),
        ({}, {(7, 0): ()}, r"commutator key \(7, 0\) "),
    ])
    def test_rejects_malformed_presentation_parts(self, power, conj, part):
        # the first two raised a bare ValueError, the next two a TypeError;
        # an empty commutator tail was dropped before its key was checked,
        # so the last two built
        with pytest.raises(PresentationError, match=part):
            PcGroup(3, 2, power, conj)

    def test_rejects_inconsistent_presentation(self):
        # g1^3 = g3 together with [g3,g2] = g4 admits no group of order 3^4
        with pytest.raises(PresentationError):
            PcGroup(3, 4, {0: ((2, 1),)}, {(2, 1): ((3, 1),)})

    def test_group_invariants(self):
        G = get_group("H27")
        assert G.order == 27
        # oracles: the elements commuting with all of G, and every two
        # elements of G' commuting
        assert sum(all(G.mult(z, x) == G.mult(x, z) for x in G.elements())
                   for z in G.elements()) == 3
        der = members(G.derived_subgroup())
        assert {G.exponents(x) for x in der} == {(0, 0, 0), (0, 0, 1),
                                                 (0, 0, 2)}
        assert all(G.mult(x, y) == G.mult(y, x) for x in der for y in der)
        assert sorted(G.element_order(x) for x in G.elements()).count(3) == 26

    def test_power_reduces_exponent_mod_order(self):
        G = get_group("MC81a")
        for u in G.elements():
            assert G.power(u, 10 ** 12 + 1) == \
                G.power(u, 10 ** 12 % G.order + 1)
            assert G.power(u, -1) == G.inv(u)
            assert G.mult(G.power(u, -5), G.power(u, 5)) == G.identity
        assert G.collect(((0, 10 ** 12),)) == \
            G.power(G.collect(((0, 1),)), 10 ** 12)

    def test_abelianization_structures(self):
        for name, invs in [("C27", (27,)), ("H27", (3, 3)), ("M27", (3, 3)),
                           ("M243", (3, 27)), ("Q8", (2, 2)),
                           ("C3xC3xC3", (3, 3, 3))]:
            A, proj, lifts = get_group(name).abelianization()
            assert A.invariant_factors == invs, name
            G = get_group(name)
            for x in G.elements():
                for y in G.elements():
                    assert proj(G.mult(x, y)) == A.add(proj(x), proj(y))
                    break


# ---------------------------------------------------------------------------
# exhaustive group-law check, a verdict oracle for the consistency proof
# ---------------------------------------------------------------------------

class _Unproven(PcGroup):
    """Builds the right-multiplication columns but skips the proof."""

    def _prove_consistency(self):
        pass


def gen_table(G):
    """{u: [u g_0, ..., u g_{n-1}]} over all normal words u as exponent
    tuples, read off G's numbered columns."""
    return {G.exponents(u): [G.exponents(col[u]) for col in G._cols]
            for u in G.elements()}


def exhaustive_group_law(p, n, power_tails, conj_tails):
    """Whether the collected multiplication on normal words is a group law:
    every element has an inverse in the |G|^2 product table, right
    multiplication by each generator is bijective, and the product is
    associative."""
    G = _Unproven(p, n, power_tails, conj_tails)
    right = gen_table(G)
    elements, one = list(right), G.exponents(G.identity)
    table = {}
    for u in elements:
        for v in elements:
            w = u
            for i, e in enumerate(v):
                for _ in range(e):
                    w = right[w][i]
            table[(u, v)] = w
    if any(all(table[(u, v)] != one for v in elements)
           for u in elements):
        return False
    if any(len({right[u][g] for u in elements}) != len(elements)
           for g in range(n)):
        return False
    return all(right[table[(u, v)]][g] == table[(u, right[v][g])]
               for u in elements for v in elements for g in range(n))


def random_presentation(rng, p, n):
    def word(lo):
        return tuple((g, rng.randrange(1, p)) for g in range(lo, n)
                     if rng.random() < 0.35)
    return ({i: word(i + 1) for i in range(n)},
            {(j, i): word(j + 1) for i in range(n) for j in range(i + 1, n)})


def small_random_presentations():
    """The 200 seeded presentations (p, n, power, conj) of
    TestConsistencyProof, p in {2, 3}."""
    rng = random.Random(2012)
    for _ in range(200):
        p = rng.choice((2, 3))
        n = rng.randint(3, 5 if p == 2 else 4)
        yield (p, n) + random_presentation(rng, p, n)


class TestConsistencyProof:
    def test_catalog_agrees_with_exhaustive_oracle(self):
        for name, G in load_catalog().items():
            assert G.order <= 3 ** 5, name
            assert exhaustive_group_law(G.p, G.n, G.power_tails,
                                        G.conj_tails), name

    def test_random_presentations_agree_with_exhaustive_oracle(self):
        verdicts = Counter()
        for p, n, power, conj in small_random_presentations():
            try:
                PcGroup(p, n, power, conj)
                proven = True
            except PresentationError as exc:
                proven = False
                assert_names_first_failing_overlap(
                    _Unproven(p, n, power, conj), str(exc))
            assert proven == exhaustive_group_law(p, n, power, conj), \
                (p, n, power, conj)
            verdicts[proven] += 1
        assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts


# ---------------------------------------------------------------------------
# word-rewriting collection, the oracle for the right-multiplication columns
# ---------------------------------------------------------------------------

def word_letters(word):
    """Expand ((gen, exp), ...) into single generator letters."""
    return [g for g, e in word for _ in range(e)]


def collect_word(p, n, power_tails, conj_tails, letters):
    """Collection from the left on a list of single generator letters:
    rewrite the leftmost descent gj gi or run of p equal letters until the
    word is normal; return its exponent vector.  power_tails maps each
    generator index to its tail word, a missing index to the empty word."""
    w = list(letters)
    while True:
        run = 0
        for k, g in enumerate(w):
            if k + 1 < len(w) and g > w[k + 1]:
                tail = conj_tails.get((g, w[k + 1]), ())
                w[k:k + 2] = [w[k + 1], g] + word_letters(tail)
                break
            run = run + 1 if k and g == w[k - 1] else 1
            if run == p:
                w[k - p + 1:k + 1] = word_letters(power_tails.get(g, ()))
                break
        else:
            return tuple(w.count(g) for g in range(n))


def word_collector_table(p, n, power_tails, conj_tails):
    """{u: [u g_0, ..., u g_{n-1}]} over all normal words u, each entry the
    collected letters of u followed by g.  power_tails is a dict or a list
    indexed by generator, as PcGroup accepts it."""
    if not isinstance(power_tails, dict):
        power_tails = dict(enumerate(power_tails))
    return {u: [collect_word(p, n, power_tails, conj_tails,
                             word_letters(enumerate(u)) + [g])
                for g in range(n)]
            for u in itertools.product(range(p), repeat=n)}


# the order-5^5 group of maximal class of test_order_5_to_the_5_maximal_class
MAXIMAL_CLASS_5_5 = (5, 5, {}, {(1, 0): ((2, 1),), (2, 0): ((3, 1),),
                                (3, 0): ((4, 1),)})

INCONSISTENT_MESSAGE = (r"^presentation inconsistent: overlap (g\d+\^\d+"
                        r"|g\d+\^\d+ g\d+|g\d+ g\d+\^\d+|g\d+ g\d+ g\d+) "
                        r"fails$")


def random_presentations(seed, count):
    """count seeded random presentations, p in {2, 3, 5}, each with its
    verdict: the PcGroup, or the PresentationError it raised."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((2, 3, 5))
        n = rng.randint(3, {2: 6, 3: 5, 5: 4}[p])
        power, conj = random_presentation(rng, p, n)
        try:
            yield (p, n, power, conj), PcGroup(p, n, power, conj)
        except PresentationError as exc:
            yield (p, n, power, conj), exc


class TestTableAgainstWordCollector:
    def test_catalog_tables(self):
        for name, G in load_catalog().items():
            assert gen_table(G) == word_collector_table(
                G.p, G.n, G.power_tails, G.conj_tails), name

    def test_order_5_to_the_5_maximal_class_table(self):
        G = PcGroup(*MAXIMAL_CLASS_5_5)
        assert gen_table(G) == word_collector_table(*MAXIMAL_CLASS_5_5)

    def test_random_presentations(self):
        # rejected presentations are compared too, on the unproven table: a
        # wrong table would otherwise only show as one more rejection
        consistent = Counter()
        for presentation, G in random_presentations(2013, 250):
            if isinstance(G, PcGroup):
                consistent[G.p] += 1
            else:
                G = _Unproven(*presentation)
            assert gen_table(G) == word_collector_table(*presentation), \
                presentation
        assert sum(consistent.values()) >= 100, consistent
        assert min(consistent[p] for p in (2, 3, 5)) >= 20, consistent

    def test_rejection_messages(self):
        rejected = Counter()
        for presentation, G in random_presentations(2014, 220):
            if not isinstance(G, PcGroup):
                assert re.match(INCONSISTENT_MESSAGE, str(G)), (presentation, G)
                overlap = str(G).split("overlap ")[1][:-len(" fails")]
                rejected[re.sub(r"\d+", "N", overlap)] += 1
        # every kind of overlap fails somewhere
        assert rejected["gN^N"] >= 20 and rejected["gN^N gN"] >= 3 and \
            rejected["gN gN^N"] >= 3 and rejected["gN gN gN"] >= 1, rejected


# ---------------------------------------------------------------------------
# the per-element relator check, a verdict oracle for the test-word proof
# ---------------------------------------------------------------------------

def relator_check(G):
    """The relations of G's presentation checked on its right-multiplication
    table one normal word at a time, two walks through the table per word
    and relation: None when all hold, else the first that fails.  The
    relations hold at every word exactly when the presentation is
    consistent, so this is a verdict oracle for the test-word proof."""
    table = gen_table(G)

    def apply(u, letters):
        for g in letters:
            u = table[u][g]
        return u

    relations = []
    for i in range(G.n):
        relations.append(("power relation of g%d" % (i + 1),
                          [i] * G.p, word_letters(G.power_tails[i])))
        for j in range(i + 1, G.n):
            tail = word_letters(G.conj_tails.get((j, i), ()))
            relations.append(("commutator relation [g%d,g%d]" % (j + 1, i + 1),
                              [j, i], [i, j] + tail))
    for what, lhs, rhs in relations:
        for u in table:
            if apply(u, lhs) != apply(u, rhs):
                return what
    return None


def overlaps(G):
    """(name, word, reduct) of each test word of G's presentation, in the
    order the proof tries them: the word itself, and the word with its
    rightmost rule rewritten, both as letter lists."""
    p, n = G.p, G.n
    tail = [word_letters(t) for t in G.power_tails]

    def comm(j, i):
        return word_letters(G.conj_tails.get((j, i), ()))

    out = [("g%d^%d" % (i + 1, p + 1), [i] * (p + 1), [i] + tail[i])
           for i in range(n)]
    out += [("g%d^%d g%d" % (j + 1, p, i + 1), [j] * p + [i],
             [j] * (p - 1) + [i, j] + comm(j, i))
            for i in range(n) for j in range(i + 1, n)]
    out += [("g%d g%d^%d" % (j + 1, i + 1, p), [j] + [i] * p, [j] + tail[i])
            for i in range(n) for j in range(i + 1, n)]
    out += [("g%d g%d g%d" % (k + 1, j + 1, i + 1), [k, j, i],
             [k, i, j] + comm(j, i))
            for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]
    return out


def assert_names_first_failing_overlap(G, message):
    """message names an overlap whose word and reduct collect differently
    on G's table, and every overlap tried before it collects alike."""
    table = gen_table(G)

    def collected(letters):
        u = G.exponents(G.identity)
        for g in letters:
            u = table[u][g]
        return u

    assert re.match(INCONSISTENT_MESSAGE, message), message
    for name, word, reduct in overlaps(G):
        if message == "presentation inconsistent: overlap %s fails" % name:
            assert collected(word) != collected(reduct), message
            return
        assert collected(word) == collected(reduct), (name, message)
    raise AssertionError("no overlap named in %r" % message)


class TestProofAgainstRelatorCheck:
    def test_catalog(self):
        for name, G in load_catalog().items():
            assert relator_check(G) is None, name

    @pytest.mark.parametrize("seed, count", [(2013, 250), (2014, 220)])
    def test_random_presentations(self, seed, count):
        verdicts = Counter()
        for presentation, G in random_presentations(seed, count):
            proven = isinstance(G, PcGroup)
            unproven = _Unproven(*presentation)
            assert proven == (relator_check(unproven) is None), presentation
            if not proven:
                assert_names_first_failing_overlap(unproven, str(G))
            verdicts[proven] += 1
        assert verdicts[True] >= 80 and verdicts[False] >= 80, verdicts


class TestNumbering:
    """An element is the number of its normal word in exponent-vector
    order."""

    def test_elements_are_the_normal_words_in_order(self):
        proven = 0
        groups = list(load_catalog().values())
        for presentation in small_random_presentations():
            try:
                groups.append(PcGroup(*presentation))
            except PresentationError:
                groups.append(_Unproven(*presentation))
        for G in groups:
            words = list(itertools.product(range(G.p), repeat=G.n))
            assert [G.exponents(u) for u in G.elements()] == words
            if isinstance(G, _Unproven):
                continue  # collection is a group law only when proven
            proven += 1
            assert G.identity == 0
            for u, e in zip(G.elements(), words):
                assert G.collect(tuple(enumerate(e))) == u, (G.name, e)
        assert proven >= 36 + 50, proven

    def test_only_the_columns_grow_with_the_group(self):
        checked = 0
        for name, G in load_catalog().items():
            if G.abelianization()[0].rank(G.p) < 1:
                continue
            assert_only_the_columns_grow(G)
            checked += 1
        assert checked == 35


def big_attributes(obj, size):
    """The attributes of obj holding a container of size or more entries,
    directly or as an item of a list, tuple or dict."""
    containers = (list, tuple, dict, set, frozenset, range)
    out = []
    for attr, value in vars(obj).items():
        held = [value]
        if isinstance(value, (list, tuple)):
            held += value
        elif isinstance(value, dict):
            held += list(value) + list(value.values())
        if any(isinstance(x, containers) and len(x) >= size for x in held):
            out.append(attr)
    return out


def assert_only_the_columns_grow(G):
    """After a full analysis, no attribute of G other than _cols, and no
    attribute of G.as_subgroup or of a descriptor of the index-p lattice
    or of its derived subgroup, holds a container of |G| or more
    entries.  The descriptors are checked for n >= 2: in a group of order
    p, the 3-tuple (A, proj, lifts) of an abelianization already has |G|
    entries when p = 3."""
    capitulation_type(G)
    catalog_relative_data(G)
    assert big_attributes(G, G.order) == ["_cols"], G.name
    subs = subgroups_index_p_above_derived(G)
    for H in [G.as_subgroup] + subs + [H.derived for H in subs]:
        assert G.n < 2 or big_attributes(H, G.order) == [], (G.name, H.pcgs)


class TestInverse:
    @staticmethod
    def groups():
        yield from load_catalog().values()
        yield PcGroup(*MAXIMAL_CLASS_5_5)
        for _, G in random_presentations(2013, 250):
            if isinstance(G, PcGroup):
                yield G

    def test_inverse_is_the_power_minus_one(self):
        # oracle: power(u, -1) = u^(|G| - 1), by products on the columns
        checked = 0
        for G in self.groups():
            for u in G.elements():
                v = G.inv(u)
                assert v == G.power(u, -1), (G.p, G.n, u)
                assert G.mult(u, v) == G.identity, (G.p, G.n, u)
            checked += 1
        assert checked >= 36 + 1 + 80, checked


class TestPower:
    def test_power_matches_repeated_products(self):
        G = PcGroup(*MAXIMAL_CLASS_5_5)
        rng = random.Random(3)
        for u in G.generators() + rng.sample(G.elements(), 20):
            powers = [G.identity]  # powers[k] = u^k by k products
            for _ in range(G.order - 1):
                powers.append(G.mult(powers[-1], u))
            assert G.mult(powers[-1], u) == G.identity
            for k in (-7, -1, 0, 1, 2, 5, 3124, 10 ** 12 + 1):
                assert G.power(u, k) == powers[k % G.order], (u, k)

    def test_power_makes_logarithmically_many_products(self):
        G = PcGroup(*MAXIMAL_CLASS_5_5)
        products = Counter()
        mult = G.mult

        def counting(u, v):
            products["mult"] += 1
            return mult(u, v)

        G.mult = counting
        assert G.collect(((0, -1),)) == G.inv(G.generators()[0])
        # k = |G| - 1 = 3124 has 12 binary digits: at most 2 products each
        assert 0 < products["mult"] <= 2 * 12 + 1, products


# [g2,g1] = g3, [g3,g1] = g4, [g3,g2] = g5, [g4,g1] = g6,
# [g4,g2] = [g5,g1] = g7, [g5,g2] = g8, powers trivial: the order-5^8
# two-generator group of class 4 of TestScale
CLASS_4_5_8_CONJ = {(1, 0): ((2, 1),), (2, 0): ((3, 1),), (2, 1): ((4, 1),),
                    (3, 0): ((5, 1),), (3, 1): ((6, 1),), (4, 0): ((6, 1),),
                    (4, 1): ((7, 1),)}


class TestScale:
    def test_order_5_to_the_7_builds(self):
        # the order-5^6 group of maximal class ([g_k, g_1] = g_{k+1},
        # k = 2..5) times C5, generated by g7
        start = time.perf_counter()
        G = PcGroup(5, 7, {}, {(k, 0): ((k + 1, 1),) for k in range(1, 5)})
        assert time.perf_counter() - start < 2.0
        assert G.order == 5 ** 7
        assert G.abelianization()[0].invariant_factors == (5, 5, 5)

    def test_order_5_to_the_7_chain_with_a_power_is_rejected(self):
        # g2^5 = g7 and [g_k, g_1] = g_{k+1} for k <= 6
        power = {1: ((6, 1),)}
        conj = {(k, 0): ((k + 1, 1),) for k in range(1, 6)}
        with pytest.raises(PresentationError, match=INCONSISTENT_MESSAGE):
            PcGroup(5, 7, power, conj)
        assert relator_check(_Unproven(5, 7, power, conj)) is not None

    def test_order_5_to_the_8_two_generator_class_4(self):
        # CLASS_4_5_8_CONJ: exponent 5 and class 4 < 5, so by the regularity
        # argument of test_order_5_to_the_5_maximal_class every transfer
        # kernel is the whole of G/G' = C5 x C5
        G = PcGroup(5, 8, {}, CLASS_4_5_8_CONJ)
        assert G.abelianization()[0].invariant_factors == (5, 5)
        assert G.derived_subgroup().index == 5 ** 2
        entries = capitulation_type(G)
        assert [e.code for e in entries] == [0] * 6
        assert all(e.kernel.order() == 25 for e in entries)
        assert all(d.check_invariants() == []
                   for d in catalog_relative_data(G))
        assert_only_the_columns_grow(G)


def is_normal(G, H):
    """Whether every conjugate of an element of H by a generator of G lies
    in H."""
    hs = set(members(H))
    return all(G.conjugate(x, t) in hs for x in hs for t in G.generators())


class TestSubgroups:
    def test_normalized_lines(self):
        assert normalized_lines(3, 2) == [(0, 1), (1, 0), (1, 1), (1, 2)]
        assert len(normalized_lines(5, 2)) == 6
        assert normalized_lines(2, 3) == [(0, 0, 1), (0, 1, 0), (0, 1, 1),
                                          (1, 0, 0), (1, 0, 1), (1, 1, 0),
                                          (1, 1, 1)]

    def test_index_p_subgroups(self):
        G = get_group("H27")
        subs = subgroups_index_p_above_derived(G)
        assert len(subs) == 4
        der = set(members(G.derived_subgroup()))
        for H in subs:
            assert H.index == 3
            assert is_normal(G, H)
            assert der <= set(members(H))
        assert len({frozenset(members(H)) for H in subs}) == 4

    def test_subgroup_descriptor_roundtrip(self):
        G = get_group("C3xC3")
        g1_powers = [G.collect(((0, e),)) for e in range(3)]
        H = G.subgroup(g1_powers)
        assert H.index == 3
        assert is_normal(G, H)
        assert members(H) == g1_powers
        assert G.subgroup(g1_powers[1:2]) == H
        assert G.subgroup(members(H)) == H
        assert H.pcgs == (g1_powers[1],)

    def test_grown_closures_match_closures_from_the_identity(self):
        # oracles: closures by breadth-first search from the identity, and
        # H' from the commutators [a, y], a in H and y a generator
        rng = random.Random(11)
        checked = 0
        for name, G in sorted(load_catalog().items()):
            assert G.order <= 3 ** 5, name
            seen = []
            for _ in range(30):
                xs = rng.choices(G.elements(), k=rng.randint(1, 3))
                H, hs = G.subgroup(xs), closure(G, xs)
                assert members(H) == sorted(hs), (name, xs)
                assert H.index * len(hs) == G.order, (name, xs)
                assert members(G.derived_of(xs)) == \
                    sorted(derived_closure(G, xs)), (name, xs)
                for K, ks in seen:
                    assert (H == K) == (hs == ks), (name, xs)
                    if hs == ks:
                        assert hash(H) == hash(K), (name, xs)
                seen.append((H, hs))
                checked += 1
        assert checked == 36 * 30

    def test_coset_labels_match_min_over_subgroup(self):
        # oracle: the least element of H x, found by multiplying out all of H
        def check(H, hs):
            assert members(H) == sorted(hs), (G.name, H.pcgs)
            minima = coset_minima(G, hs)
            assert all(H.label(x) == minima[x] for x in G.elements()), \
                (G.name, H.pcgs)

        rng = random.Random(12)
        checked = 0
        for name, G in sorted(load_catalog().items()):
            if G.abelianization()[0].rank(G.p) >= 1:
                # the shared lattice and G', each set spanned by its pcgs
                for H in subgroups_index_p_above_derived(G) + \
                        [G.derived_subgroup()]:
                    check(H, closure(G, H.pcgs))
                    checked += 1
            for _ in range(10):
                xs = rng.choices(G.elements(), k=rng.randint(1, 3))
                check(G.subgroup(xs), closure(G, xs))
                checked += 1
        assert checked > 100

    def test_schreier_transversal(self):
        G = get_group("M27")
        for H in subgroups_index_p_above_derived(G):
            T = schreier_transversal(G, H)
            assert len(T) == H.index
            assert T[0] == G.identity
            # exactly one representative per right coset
            covered = {G.mult(h, t) for h in members(H) for t in T}
            assert covered == set(G.elements())

    def test_quotient_reps_are_left_cosets_of_h_prime(self):
        # quotient_structure(H, H') names the coset x H' by its least element
        for G in load_catalog().values():
            if G.abelianization()[0].rank(G.p) < 1:
                continue
            for H in subgroups_index_p_above_derived(G):
                derived = H.derived
                ds = members(derived)
                left = {x: min(G.mult(x, d) for d in ds) for x in members(H)}
                assert {x: derived.label(x) for x in left} == left
                A, proj, _ = G.quotient_structure(H, derived)
                assert all(proj(x) == proj(r) for x, r in left.items())
                reps = set(left.values())
                assert len({proj(r) for r in reps}) == len(reps) == A.order()


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------

def raw_transfer_class(G, H, derived, g):
    """Transfer image of g computed from the definition with a transversal
    picked as the minimum of each right coset; returned as the full H'-coset
    of the product so it can be compared without coordinates."""
    hset = members(H)
    cosets = {}
    for x in G.elements():
        key = min(G.mult(h, x) for h in hset)
        cosets.setdefault(key, key)
    T = sorted(cosets)
    prod = G.identity
    for t in T:
        u = G.mult(t, g)
        rep = min(G.mult(h, u) for h in hset)  # coset representative of Hu
        prod = G.mult(prod, G.mult(u, G.inv(rep)))
    return frozenset(G.mult(prod, d) for d in derived)


class TestTransfer:
    @pytest.mark.parametrize("name", ["C9", "H27", "M27", "MC81a", "Q8", "D4"])
    def test_matches_raw_definition(self, name):
        G = get_group(name)
        for H in subgroups_index_p_above_derived(G):
            tm = transfer(G, H)
            derived = G.derived_of(members(H))  # all pairs of H
            A_H, proj_H, gens_H = G.quotient_structure(H, derived)
            for g in G.elements():
                coords = tm(tm.source.reduce(
                    G.abelianization()[1](g)))
                built = G.identity
                for c, lift in zip(coords, gens_H):
                    built = G.mult(built, G.power(lift, c))
                assert built in raw_transfer_class(G, H, members(derived), g)

    def test_cyclic_transfer_is_multiplication_by_index(self):
        # C9 -> its subgroup of order 3: the transfer cubes
        G = get_group("C9")
        H = subgroups_index_p_above_derived(G)[0]
        tm = transfer(G, H)
        assert tm.kernel().order() == 3

    def test_transversal_validation(self):
        G = get_group("H27")
        H = subgroups_index_p_above_derived(G)[0]
        with pytest.raises(PresentationError):
            transfer(G, H, transversal=[G.identity] * 3)
        T = schreier_transversal(G, H)
        with pytest.raises(PresentationError):
            transfer(G, H, transversal=T[:2] + [(5, 5, 5)])

    @pytest.mark.parametrize("bad", [-1, 27, (5, 5, 5), 1.5])
    def test_elements_from_outside_are_checked(self, bad):
        # mult and inv take element numbers unchecked; subgroup, derived_of
        # and an explicit transversal check what they are given
        G = get_group("H27")
        H = subgroups_index_p_above_derived(G)[0]
        T = schreier_transversal(G, H)
        for call in (lambda: G.subgroup([G.identity, bad]),
                     lambda: G.subgroup([T[1]], [bad]),
                     lambda: G.derived_of([T[1], bad]),
                     lambda: transfer(G, H, transversal=T[:2] + [bad])):
            with pytest.raises(PresentationError,
                               match="is not an element of this group of "
                                     "order 27"):
                call()

    def test_transversal_independence(self):
        rng = random.Random(5)
        G = get_group("MC81b")
        for H in subgroups_index_p_above_derived(G):
            base = transfer(G, H)
            T0 = schreier_transversal(G, H)
            for _ in range(5):
                T = [G.mult(rng.choice(members(H)), t) for t in T0]
                assert transfer(G, H, transversal=T) == base


class TestSharedLattice:
    """The index-p lattice, each subgroup's transversal and H/H' are
    computed once and shared; an uncached descriptor of the same subgroup
    is the oracle."""

    def test_fresh_descriptors_agree_with_the_lattice(self):
        checked = 0
        for G in load_catalog().values():
            if G.abelianization()[0].rank(G.p) < 1:
                continue
            capitulation_type(G)
            data = catalog_relative_data(G)
            for H, d in zip(subgroups_index_p_above_derived(G), data):
                fresh = G.subgroup(members(H))
                cached = {"_sifters", "transversal", "abelianization"}
                assert fresh is not H and not cached & set(vars(fresh))
                assert fresh == H
                assert transfer(G, fresh).matrix == transfer(G, H).matrix
                assert fresh.abelianization[0] == H.abelianization[0]
                e = make_relative_datum(G, fresh)
                assert (e.lift.matrix, e.norm.matrix, e.sigma.matrix) == \
                    (d.lift.matrix, d.norm.matrix, d.sigma.matrix)
                checked += 1
        assert checked == 224

    def test_one_transversal_per_subgroup(self, monkeypatch):
        base = get_group("MC81a")
        G = PcGroup(base.p, base.n, base.power_tails, base.conj_tails)
        seen = Counter()
        real = pcgroup.schreier_transversal

        def counting(G, H):
            seen[H] += 1
            return real(G, H)

        monkeypatch.setattr(pcgroup, "schreier_transversal", counting)
        capitulation_type(G)
        catalog_relative_data(G)
        subs = subgroups_index_p_above_derived(G)
        assert len(subs) == 4
        assert seen == Counter(subs)

    def test_one_default_transfer_per_subgroup(self, monkeypatch):
        base = get_group("MC81a")
        G = PcGroup(base.p, base.n, base.power_tails, base.conj_tails)
        seen = Counter()
        real = pcgroup._transfer_product

        def counting(G, H, transversal):
            seen[H] += 1
            return real(G, H, transversal)

        monkeypatch.setattr(pcgroup, "_transfer_product", counting)
        capitulation_type(G)
        catalog_relative_data(G)
        subs = subgroups_index_p_above_derived(G)
        assert seen == Counter(subs)
        for H in subs:
            assert transfer(G, H) is transfer(G, H)
            # an explicit transversal is computed anew, to the same matrix
            explicit = transfer(G, H, transversal=list(H.transversal)[::-1])
            assert explicit is not transfer(G, H)
            assert explicit.matrix == transfer(G, H).matrix
        assert seen == Counter(subs * 2)

    def test_returned_list_is_a_copy(self):
        G = get_group("H27")
        subs = subgroups_index_p_above_derived(G)
        first = list(subs)
        subs.reverse()
        subs.pop()
        again = subgroups_index_p_above_derived(G)
        assert len(again) == 4
        assert all(a is b for a, b in zip(again, first))

    def test_subgroup_of_another_group_is_rejected(self):
        H = subgroups_index_p_above_derived(get_group("M27"))[0]
        with pytest.raises(PresentationError):
            transfer(get_group("H27"), H)
        # the same pcgs numbers in another group name another subgroup
        K = subgroups_index_p_above_derived(get_group("H27"))[0]
        assert K.pcgs == H.pcgs and K != H


# the base groups and cyclic factors C_{p^k} of the seeded products that
# the catalog-tkt benchmark workload draws (PRODUCT_POOL in
# perfbench/inputs.py)
PRODUCT_BASES = (("M81", 1), ("C9sC9", 1), ("G81c2", 1), ("C3wrC3", 1),
                 ("MC81a", 1), ("MC81b", 1), ("MC81c", 1),
                 ("H27", 2), ("M27", 2))


def times_cyclic(G, k):
    """G x C_{p^k}: G's presentation followed by k central generators
    h_1, ..., h_k with h_j^p = h_(j+1) and h_k^p = 1."""
    n = G.n
    power = list(G.power_tails) + [((n + j + 1, 1),) if j + 1 < k else ()
                                   for j in range(k)]
    return PcGroup(G.p, n + k, power, G.conj_tails)


class TestLatticeAgainstClosures:
    """subgroups_index_p_above_derived reads each subgroup's canonical pcgs
    off its functional; closure_lattice, the oracle, closes G' and the
    lifted kernel generators with PcGroup.subgroup.  Both must give the
    same descriptors in the same order."""

    def check(self, G):
        assert G.abelianization()[0].rank(G.p) >= 1, G.name
        assert subgroups_index_p_above_derived(G) == closure_lattice(G), \
            G.name

    def test_catalog(self):
        checked = 0
        for G in load_catalog().values():
            if G.abelianization()[0].rank(G.p) >= 1:
                self.check(G)
                checked += len(subgroups_index_p_above_derived(G))
        assert checked == 224

    def test_products_with_cyclic_groups(self):
        for name, k in PRODUCT_BASES:
            G = times_cyclic(get_group(name), k)
            assert G.order == 3 ** 5
            assert G.abelianization()[0].rank(3) == 3
            self.check(G)

    def test_order_5_to_the_8(self):
        self.check(PcGroup(5, 8, {}, CLASS_4_5_8_CONJ))

    def test_random_presentations(self):
        groups = [G for _, G in random_presentations(2023, 120)
                  if isinstance(G, PcGroup)]
        assert len(groups) >= 20
        for G in groups:
            self.check(G)

    def test_a_wrong_projection_trips_the_derived_guard(self, monkeypatch):
        # H27: G' = <g3>; a "projection" reading the exponents of g2 and g3
        # gives functionals that do not vanish on g3
        base = get_group("H27")
        G = PcGroup(base.p, base.n, base.power_tails, base.conj_tails)
        A, _, lifts = G.abelianization()
        assert A.invariant_factors == (3, 3)
        monkeypatch.setattr(G, "abelianization",
                            lambda: (A, lambda x: G.exponents(x)[1:], lifts))
        with pytest.raises(PresentationError, match="does not vanish on G'"):
            subgroups_index_p_above_derived(G)


class TestCapitulationType:
    def test_heisenberg_kernels_are_full(self):
        entries = capitulation_type(get_group("H27"))
        assert [e.code for e in entries] == [0, 0, 0, 0]
        for e in entries:
            assert e.kernel.order() == 9
            assert not e.flagged

    def test_elementary_abelian_kernels_are_full(self):
        entries = capitulation_type(get_group("C3xC3"))
        assert [e.code for e in entries] == [0, 0, 0, 0]

    def test_line_codes_partition(self):
        # every kernel of an order-3 transfer kernel group is a line or full
        for name in ("M27", "MC81a", "MC81b", "MC81c", "C3wrC3"):
            entries = capitulation_type(get_group(name))
            assert len(entries) == 4
            for e in entries:
                assert e.code is not None
                assert 0 <= e.code <= 4

    def test_quaternion_kernels_are_the_three_lines(self):
        # each order-4 subgroup of Q8 has a kernel of order 2 and all
        # three lines occur exactly once
        entries = capitulation_type(get_group("Q8"))
        assert sorted(e.code for e in entries) == [1, 2, 3]
        for e in entries:
            assert e.kernel.order() == 2

    def test_order_5_to_the_5_maximal_class(self):
        # class 4: [g2,g1] = g3, [g3,g1] = g4, [g4,g1] = g5, powers trivial,
        # so exponent 5 (regular, class < 5).  The transfer to a maximal H
        # sends g outside H to g^5 = 1 and g inside H to its norm
        # (sigma - 1)^4 on H/H', an F_5-space of dimension <= 4 on which
        # sigma - 1 is nilpotent: every kernel is the full group.
        start = time.perf_counter()
        G = PcGroup(5, 5, {}, {(1, 0): ((2, 1),), (2, 0): ((3, 1),),
                               (3, 0): ((4, 1),)})
        entries = capitulation_type(G)
        assert time.perf_counter() - start < 5.0
        assert G.order == 5 ** 5
        assert len(members(G.derived_subgroup())) == 5 ** 3
        # g1, g2 generate G: the commutator [g2,g1] = g3 alone spans only
        # <g3>, the normal closure adds g4 and g5
        assert G.derived_of(G.generators()[:2]) == G.derived_subgroup()
        assert [e.code for e in entries] == [0] * 6
        assert all(e.kernel.order() == 25 for e in entries)


# ---------------------------------------------------------------------------
# pinned outputs over the whole catalog
# ---------------------------------------------------------------------------

def catalog_dump():
    """Canonical JSON of every catalog group's derived subgroup and, when
    rank(G/G') >= 1, its TKT, index-p lattice, transversals, transfers
    (default and reversed explicit transversal), H/H' and relative data.
    Elements are written as exponent tuples; a subgroup of the lattice by
    its ascending greedy generators, its derived subgroup by its elements,
    both read off the element set by the test oracles."""
    def words(G, elements):
        return [G.exponents(x) for x in elements]

    out = {}
    for name, G in sorted(load_catalog().items()):
        entry = {"derived": words(G, members(G.derived_subgroup()))}
        if G.abelianization()[0].rank(G.p) >= 1:
            entry["tkt"] = [[e.code, e.kernel.basis]
                            for e in capitulation_type(G)]
            entry["subgroups"] = []
            subs = subgroups_index_p_above_derived(G)
            for H, d in zip(subs, catalog_relative_data(G)):
                T = schreier_transversal(G, H)
                tm = transfer(G, H)
                entry["subgroups"].append({
                    "generators": words(G, greedy_generators(G, members(H))),
                    "transversal": words(G, T),
                    "transfer": tm.matrix,
                    "transfer_reversed":
                        transfer(G, H, transversal=T[::-1]).matrix,
                    "abelianization": tm.target.invariant_factors,
                    "derived": words(G, members(H.derived)),
                    "datum": [d.lift.matrix, d.norm.matrix, d.sigma.matrix],
                    "growth": classify_growth(d).value,
                    "problems": d.check_invariants(),
                })
        out[name] = entry
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


# sha256 of catalog_dump(), recorded before the index-p lattice was shared
# between capitulation_type and catalog_relative_data; a change to any
# pcgroup or gmodule output over the catalog changes it
CATALOG_DUMP_SHA256 = (
    "94492c233bfbe8695ad01a131074c07e6f99be62874882ced972b688cfb1c2ae")


def test_catalog_dump_is_pinned():
    assert len(load_catalog()) == 36
    digest = hashlib.sha256(catalog_dump().encode("utf-8")).hexdigest()
    assert digest == CATALOG_DUMP_SHA256
