"""Group algebra idempotents, module decompositions and the relative
extension datum.

Oracles:
  - the number of primitive idempotents of (Z/p^m)[G], cyclic or not, is
    checked against the number of orbits of g -> p g on G, counted here
    directly;
  - idempotent identities (e^2 = e, orthogonality, sum to one) are verified
    by the term-by-term arithmetic of (Z/p^m)[G] in algebra_oracles;
  - for cyclic G = C_d, the mod-p idempotents equal, as a set, those from
    sympy's factorisation of x^d - 1 over GF(p) (skipped where sympy is
    not installed);
  - randomized modules are assembled from explicitly constructed blocks and
    scrambled by elementary automorphisms, so the expected decomposition
    shape is known by construction;
  - classify_growth equals `image_growth_oracle`, which reads the ranks off
    the images of the p-th power map and of s^(p-1).
"""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest

from capkit.abgroup import (AbelianGroup, Homomorphism, Subgroup, hom_power,
                            identity_hom, power_hom, zero_hom)
from capkit import abgroup, cli, gmodule, heuristics, pcgroup
from capkit.catalog import CatalogError, get_group, load_catalog, parse_catalog
from capkit.gmodule import (GModule, GModuleError, GroupAlgebraElement,
                            GrowthClass, RelativeExtensionDatum,
                            catalog_relative_data, check_growth_order_law,
                            classify_growth, cycle_decomposition,
                            decompose_module, f_property, is_exact_cycle,
                            make_relative_datum, primitive_idempotents,
                            trivial_action_module)
from capkit.heuristics import (HeuristicsError, RankDistribution,
                               monte_carlo_rank_distribution,
                               predicted_rank_distribution)
from capkit.pcgroup import PresentationError, subgroups_index_p_above_derived
from algebra_oracles import algebra_one, algebra_product, algebra_sum
from pgroup_oracles import closure, derived_closure


def cyclotomic_coset_count(invs, p):
    """Number of orbits of multiplication by p on Z/d1 x ... x Z/dk, i.e.
    the number of fields in F_p[G] (for p coprime to |G|); for G = C_d the
    number of irreducible factors of x^d - 1 over F_p."""
    seen = set()
    orbits = 0
    for a in itertools.product(*map(range, invs)):
        if a in seen:
            continue
        orbits += 1
        b = a
        while b not in seen:
            seen.add(b)
            b = tuple(x * p % d for x, d in zip(b, invs))
    return orbits


class TestIdempotents:
    @pytest.mark.parametrize("invs,p,m", [
        ((2,), 3, 1), ((2,), 3, 2), ((4,), 3, 2), ((2, 2), 3, 2),
        ((2,), 5, 2), ((4,), 5, 1), ((2, 4), 3, 1), ((3,), 2, 3),
        # the lift doubles the precision: m = 2^k and 2^k + 1 end its loop
        ((2,), 3, 4), ((3,), 2, 5), ((2, 2), 3, 8), ((4,), 5, 9),
    ])
    def test_algebraic_identities(self, invs, p, m):
        G = AbelianGroup(invs)
        es = primitive_idempotents(G, p, m)
        for i, e in enumerate(es):
            assert algebra_product(e, e) == e
            assert e.coeffs
            for f in es[i + 1:]:
                assert not algebra_product(e, f).coeffs
        assert algebra_sum(*es) == algebra_one(G, p, m)

    def test_idempotents_make_no_group_algebra_product(self, monkeypatch):
        # split and lift run on the orbit-sum basis, whose table takes one
        # addition in G per element and orbit, |G| r in all; a product over
        # G takes one more per pair of terms, so any such product, even of
        # one idempotent with itself, goes over the bound
        adds = []
        add = AbelianGroup.add
        monkeypatch.setattr(AbelianGroup, "add",
                            lambda G, x, y: adds.append(1) or add(G, x, y))
        for invs, p, m in [((4,), 3, 2), ((2, 2), 3, 3), ((3, 3), 2, 5)]:
            G = AbelianGroup(invs)
            r = cyclotomic_coset_count(invs, p)
            adds.clear()
            es = primitive_idempotents(G, p, m)
            assert len(es) == r
            assert 0 < len(adds) <= G.order() * r, (invs, p, m)

    def test_count_matches_cyclotomic_cosets(self):
        # products of primitive idempotents of the cyclic factors are not
        # primitive where two factor fields have degrees k, l with
        # gcd(k, l) > 1, so the non-cyclic G here have more idempotents
        # than those products: 5, 8, 7, 17 and 10 against 4, 6, 4, 9 and 9
        for invs, p in [((2,), 3), ((4,), 3), ((8,), 3), ((2,), 5), ((4,), 5),
                        ((3,), 2), ((7,), 2), ((3, 3), 2), ((3, 9), 2),
                        ((5, 5), 2), ((7, 7), 2), ((4, 4), 3), ((2, 2), 3)]:
            G = AbelianGroup(invs)
            assert len(primitive_idempotents(G, p, 2)) == \
                cyclotomic_coset_count(invs, p), (invs, p)

    def test_c2_mod_nine_closed_form(self):
        G = AbelianGroup((2,))
        es = primitive_idempotents(G, 3, 2)
        expected = {
            GroupAlgebraElement.make(G, 3, 2, {(0,): 5, (1,): 5}),
            GroupAlgebraElement.make(G, 3, 2, {(0,): 5, (1,): -5}),
        }
        assert set(es) == expected

    def test_rejects_bad_parameters(self):
        with pytest.raises(GModuleError):
            primitive_idempotents(AbelianGroup((3,)), 3, 2)
        with pytest.raises(GModuleError):
            primitive_idempotents(AbelianGroup((2,)), 3, 0)

    @pytest.mark.parametrize("d,p,m", [(2, 4, 1), (3, 4, 1), (5, 9, 1),
                                       (2, 0, 1), (2, -3, 1), (2, 3, 2.5)])
    def test_rejects_a_p_that_is_no_prime_and_an_m_that_is_no_int(
            self, d, p, m):
        # without the checks, p = 4 on C2 grows an orbit without end, so
        # each case runs in a subprocess capped at 400 MB of address space
        # and a few seconds; -S skips the site packages, which capkit does
        # not use, to start faster
        import resource
        src = os.path.dirname(os.path.dirname(gmodule.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("from capkit.abgroup import AbelianGroup\n"
                "from capkit.gmodule import primitive_idempotents\n"
                "primitive_idempotents(AbelianGroup((%d,)), %r, %r)" % (d, p, m))
        cap = 400 << 20
        run = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True,
            text=True, timeout=5,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert run.returncode == 1
        assert run.stderr.splitlines()[-1].startswith(
            "capkit.gmodule.GModuleError: "), run.stderr

    def test_make_adds_the_coefficients_of_equal_elements(self):
        C2 = AbelianGroup((2,))
        three_g = GroupAlgebraElement.make(C2, 3, 1, {(1,): 1, (3,): 2})
        assert three_g.coeffs == ()
        assert GroupAlgebraElement.make(C2, 3, 2, {(1,): 1, (3,): 2}).coeffs \
            == (((1,), 3),)
        assert GroupAlgebraElement.make(C2, 3, 1, {(3,): 1}) == \
            GroupAlgebraElement.make(C2, 3, 1, {(1,): 1})

    def test_trivial_group_has_identity_only(self):
        es = primitive_idempotents(AbelianGroup(()), 3, 2)
        assert es == [algebra_one(AbelianGroup(()), 3, 2)]


def sympy_cyclic_idempotents_modp(d, p):
    """Primitive idempotents of F_p[C_d] as coefficient lists indexed by
    exponent of the generator, one per irreducible factor of x^d - 1."""
    from sympy import GF, Poly, symbols
    x = symbols("x")
    modulus = Poly(x ** d - 1, x, domain=GF(p))
    factors = Poly(x ** d - 1, x, domain=GF(p)).factor_list()[1]
    out = []
    for f, mult in factors:
        if mult != 1:
            raise GModuleError("x^%d - 1 is not squarefree mod %d" % (d, p))
        cof = modulus.div(f)[0]
        inv = cof.invert(f)
        e = (cof * inv).rem(modulus)
        coeffs = [0] * d
        for mono, c in zip(e.monoms(), e.coeffs()):
            coeffs[mono[0]] = int(c) % p
        out.append(coeffs)
    return out


class TestCyclicIdempotentOracle:
    def test_matches_sympy_factorisation(self):
        pytest.importorskip("sympy")
        cases = [(d, p) for d in range(1, 33) for p in (2, 3, 5, 7, 11, 13)
                 if d % p]
        assert len(cases) == 152
        for d, p in cases:
            G = AbelianGroup((d,) if d > 1 else ())
            got = {tuple(dict(e.coeffs).get((j,) if d > 1 else (), 0)
                         for j in range(d))
                   for e in primitive_idempotents(G, p, 1)}
            assert got == set(map(tuple, sympy_cyclic_idempotents_modp(d, p))), \
                (d, p)

    def test_rejects_prime_dividing_the_order(self):
        with pytest.raises(GModuleError, match="divides the group order"):
            primitive_idempotents(AbelianGroup((6,)), 3, 1)


# ---------------------------------------------------------------------------
# randomized module construction
# ---------------------------------------------------------------------------

def elementary_automorphism(A, i, j, c):
    """gen j -> gen j + c * gen i, other generators fixed; its inverse is the
    same map with -c, which makes scrambling cheap to undo."""
    k = A.ngens
    mat = [[int(r == s) for s in range(k)] for r in range(k)]
    mat[i][j] = c
    return Homomorphism(A, A, mat)


def scrambled(A, sigma, rng, steps=4):
    """Conjugate the action by a random product of elementary automorphisms."""
    for _ in range(steps):
        i, j = rng.sample(range(A.ngens), 2) if A.ngens > 1 else (0, 0)
        if i == j:
            continue
        di, dj = A.invariant_factors[i], A.invariant_factors[j]
        step = max(1, di // dj) if dj else 1
        c = step * rng.randrange(0, max(1, dj // step))
        U = elementary_automorphism(A, i, j, c)
        Ui = elementary_automorphism(A, i, j, -c)
        sigma = U.compose(sigma).compose(Ui)
    return sigma


def build_block_module(blocks, acting, rng):
    """blocks: list of (orders tuple, sigma block matrix); assembled in
    ascending order of cyclic factors, then scrambled."""
    cols = []
    for bi, (orders, mat) in enumerate(blocks):
        for li, d in enumerate(orders):
            cols.append((d, bi, li))
    order_perm = sorted(range(len(cols)), key=lambda ix: (cols[ix][0], ix))
    A = AbelianGroup(tuple(cols[ix][0] for ix in order_perm))
    pos = {ix: new for new, ix in enumerate(order_perm)}
    k = len(cols)
    big = [[0] * k for _ in range(k)]
    base = 0
    for bi, (orders, mat) in enumerate(blocks):
        for r in range(len(orders)):
            for c in range(len(orders)):
                big[pos[base + r]][pos[base + c]] = mat[r][c]
        base += len(orders)
    sigma = scrambled(A, Homomorphism(A, A, big), rng)
    return GModule(A, acting, (sigma,))


C2_BLOCKS = [
    (((3,),), [[1]]), (((9,),), [[1]]), (((27,),), [[1]]),
    (((3,),), [[-1]]), (((9,),), [[-1]]), (((27,),), [[-1]]),
    (((3, 3),), [[0, 1], [1, 0]]), (((9, 9),), [[0, 1], [1, 0]]),
]

C3_BLOCKS = [
    (((3,),), [[1]]), (((9,),), [[1]]), (((27,),), [[1]]),
    (((3, 3),), [[1, 0], [1, 1]]),
    (((3, 3, 3),), [[1, 0, 0], [1, 1, 0], [0, 1, 1]]),
    (((3, 9),), [[1, 1], [0, 4]]),
]


def random_c2_module(rng, max_order=3 ** 6):
    C2 = AbelianGroup((2,))
    blocks = []
    order = 1
    while True:
        b = rng.choice(C2_BLOCKS)
        size = 1
        for d in b[0][0]:
            size *= d
        if order * size > max_order:
            break
        blocks.append((b[0][0], b[1]))
        order *= size
        if rng.random() < 0.3:
            break
    if not blocks:
        blocks = [(C2_BLOCKS[0][0][0], C2_BLOCKS[0][1])]
    return build_block_module(blocks, C2, rng)


def random_c3_module(rng, max_order=3 ** 5):
    C3 = AbelianGroup((3,))
    blocks = []
    order = 1
    while True:
        b = rng.choice(C3_BLOCKS)
        size = 1
        for d in b[0][0]:
            size *= d
        if order * size > max_order:
            break
        blocks.append((b[0][0], b[1]))
        order *= size
        if rng.random() < 0.3:
            break
    if not blocks:
        blocks = [(C3_BLOCKS[0][0][0], C3_BLOCKS[0][1])]
    return build_block_module(blocks, C3, rng)


class TestDecomposition:
    def test_swap_action_splits_into_both_diagonals(self):
        C2 = AbelianGroup((2,))
        A = AbelianGroup((3, 3))
        M = GModule(A, C2, (Homomorphism(A, A, [[0, 1], [1, 0]]),))
        comps = decompose_module(M, primitive_idempotents(C2, 3, 2))
        shapes = sorted(sorted(c.elements()) for c in comps)
        assert shapes == [
            sorted([(0, 0), (1, 1), (2, 2)]),
            sorted([(0, 0), (1, 2), (2, 1)]),
        ]

    def test_regular_module_of_c3_x_c3_mod_2_has_five_components(self):
        # (Z/2)^9 with basis indexed by G = C3 x C3, each generator acting
        # as its translation; the fields of F_2[G] are F_2 and four F_4
        G = AbelianGroup((3, 3))
        A = AbelianGroup((2,) * 9)
        index = {g: i for i, g in enumerate(G.elements())}

        def translation(s):
            mat = [[0] * 9 for _ in range(9)]
            for g, i in index.items():
                mat[index[G.add(g, s)]][i] = 1
            return Homomorphism(A, A, mat)

        M = GModule(A, G, (translation((1, 0)), translation((0, 1))))
        comps = decompose_module(M, primitive_idempotents(G, 2, 1))
        assert sorted(c.order() for c in comps) == [2, 4, 4, 4, 4]

    def test_randomized_modules_decompose(self):
        rng = random.Random(20260825)
        C2 = AbelianGroup((2,))
        for _ in range(40):
            M = random_c2_module(rng)
            m = 1
            exp = M.module.exponent()
            while 3 ** m < exp:
                m += 1
            comps = decompose_module(M, primitive_idempotents(C2, 3, m + 1))
            total = 1
            for c in comps:
                total *= c.order()
                assert M.stable(c)
            assert total == M.module.order()

    def test_precision_guard(self):
        C2 = AbelianGroup((2,))
        A = AbelianGroup((9,))
        M = GModule(A, C2, (identity_hom(A),))
        with pytest.raises(GModuleError):
            M.algebra_endomorphism(primitive_idempotents(C2, 3, 1)[0])

    def test_action_validation(self):
        A = AbelianGroup((3, 3))
        C2 = AbelianGroup((2,))
        with pytest.raises(GModuleError):
            # the cube map has order 1, but a Jordan block has order 3 != 2
            GModule(A, C2, (Homomorphism(A, A, [[1, 1], [0, 1]]),))

    def test_action_refusals(self):
        A = AbelianGroup((3, 3))
        C2, V4 = AbelianGroup((2,)), AbelianGroup((2, 2))
        swap = Homomorphism(A, A, [[0, 1], [1, 0]])
        negate_second = Homomorphism(A, A, [[1, 0], [0, 2]])
        for action in ((), (swap, swap)):
            with pytest.raises(GModuleError, match="^need one action map "
                               "per acting-group generator$"):
                GModule(A, C2, action)
        B = AbelianGroup((3,))
        for h in (Homomorphism(A, B, [[1, 0]]), Homomorphism(B, A, [[1], [0]]),
                  identity_hom(B)):
            with pytest.raises(GModuleError, match="^action maps must be "
                               "endomorphisms of the module$"):
                GModule(A, C2, (h,))
        # two involutions of (Z/3)^2 that do not commute
        assert GModule(A, V4, (swap, power_hom(A, 2))).action[0] == swap
        with pytest.raises(GModuleError, match="^action maps must commute$"):
            GModule(A, V4, (swap, negate_second))

    def test_algebra_element_of_another_group_is_refused(self):
        C2 = AbelianGroup((2,))
        A = AbelianGroup((9,))
        M = GModule(A, C2, (identity_hom(A),))
        for G in (AbelianGroup((4,)), AbelianGroup((2, 2)), AbelianGroup(())):
            with pytest.raises(GModuleError, match="^algebra element acts "
                               "through the wrong group$"):
                M.algebra_endomorphism(primitive_idempotents(G, 3, 2)[0])

    def test_decomposition_refuses_idempotents_that_do_not_split(self):
        # the components of elements that are not orthogonal idempotents
        # summing to one do not multiply to |A|
        C2 = AbelianGroup((2,))
        A = AbelianGroup((3, 3))
        M = GModule(A, C2, (Homomorphism(A, A, [[0, 1], [1, 0]]),))
        plus, minus = primitive_idempotents(C2, 3, 2)
        assert len(decompose_module(M, [plus, minus])) == 2
        for elements in ([plus], [plus, plus, minus], [plus, minus, minus],
                         [algebra_one(C2, 3, 2), plus]):
            with pytest.raises(GModuleError, match="^component orders do "
                               "not multiply to \\|A\\|$"):
                decompose_module(M, elements)


class TestCycles:
    def test_cycles_form_direct_product(self):
        rng = random.Random(77)
        for _ in range(30):
            M = random_c3_module(rng)
            gens = cycle_decomposition(M)
            A = M.module
            total = 1
            acc = Subgroup.trivial(A)
            for b in gens:
                span = M.orbit_span(b)
                assert span.intersection(acc).order() == 1
                acc = acc.join(span)
                total *= span.order()
            assert acc == Subgroup.full(A)
            assert total == A.order()

    def test_trivial_action_recovers_invariant_factors(self):
        C3 = AbelianGroup((3,))
        for invs in [(3,), (3, 9), (3, 3, 27)]:
            M = trivial_action_module(AbelianGroup(invs), C3)
            gens = cycle_decomposition(M)
            assert sorted(M.module.element_order(b) for b in gens) == list(invs)

    def test_exactness_detects_both_outcomes(self):
        C3 = AbelianGroup((3,))
        A = AbelianGroup((3, 3))
        jordan = Homomorphism(A, A, [[1, 0], [1, 1]])
        M = GModule(A, C3, (jordan,))
        flags = {b: is_exact_cycle(M, b) for b in A.elements()}
        assert any(flags.values())
        # the fixed line is not exact: its intersection with the s-image is
        # itself, while its own s-image vanishes
        s_image = (jordan - identity_hom(A)).image()
        for b in A.elements():
            if b != (0, 0) and s_image.contains(b):
                span = M.orbit_span(b)
                if span.image_under(jordan - identity_hom(A)).order() == 1:
                    assert not flags[b]

    def test_exactness_needs_cyclic_actor(self):
        A = AbelianGroup((3,))
        V = AbelianGroup((2, 2))
        M = trivial_action_module(A, V)
        with pytest.raises(GModuleError):
            is_exact_cycle(M, (1,))


def fixpoint_orbit_span(M, b):
    """The smallest action-stable subgroup containing b, grown by joining
    the images of the span's generators until nothing changes."""
    span = Subgroup.from_generators(M.module, [b])
    while True:
        gens = span.generators()
        nxt = span
        for h in M.action:
            nxt = nxt.join(Subgroup.from_generators(
                M.module, [h(g) for g in gens]))
        if nxt == span:
            return span
        span = nxt


class TestOrbitSpan:
    def test_matches_the_fixpoint_over_criterion_7_modules(self):
        # the modules of acceptance criterion 7, drawn in the same order:
        # every element of the C3-modules it decomposes into cycles, a
        # sample of each C2-module
        rng = random.Random(31)
        c2_modules = [random_c2_module(rng, max_order=3 ** 6)
                      for _ in range(100)]
        c3_modules = [random_c3_module(rng, max_order=3 ** 5)
                      for _ in range(60)]
        pick = random.Random(5)
        checks = [(M, list(M.module.elements())) for M in c3_modules]
        checks += [(M, pick.sample(list(M.module.elements()),
                                   min(M.module.order(), 12)))
                   for M in c2_modules]
        for M, elements in checks:
            for b in elements:
                assert M.orbit_span(b) == fixpoint_orbit_span(M, b)


def image_growth_oracle(d):
    """classify_growth from images: rk(A_K^p) read off the image of the p-th
    power map, and s^(p-1) = 0 tested as a trivial image."""
    p = d.p
    if d.norm.image().structure().rank(p) == d.A_L.rank(p) and \
            d.A_K.rank(p) == power_hom(d.A_K, p).image().structure().rank(p):
        return GrowthClass.STABLE
    if hom_power(d.s_map(), p - 1).image().order() == 1:
        return GrowthClass.SEMI_STABLE
    return GrowthClass.WILD


def random_hom(rng, source, target):
    """A random homomorphism: entry (i, j) is a multiple of
    d_i / gcd(d_i, d_j), so column j respects the order d_j."""
    return Homomorphism(source, target, [
        [rng.randrange(gcd(di, dj)) * (di // gcd(di, dj))
         for dj in source.invariant_factors]
        for di in target.invariant_factors])


def random_sigma(rng, A, p):
    """The identity of A, or a unipotent 1 + x e_12 with sigma^p = 1 on the
    first two factors (a1, a2): x a multiple of a1/gcd(a1, a2) (a map) and
    of a1/gcd(a1, p) (p x = 0)."""
    rows = [[int(i == j) for j in range(A.ngens)] for i in range(A.ngens)]
    if A.ngens >= 2 and rng.random() < 0.7:
        a1, a2 = A.invariant_factors[:2]
        step = lcm(a1 // gcd(a1, a2), a1 // gcd(a1, p))
        rows[0][1] = rng.randrange(a1 // step) * step
    return Homomorphism(A, A, rows)


class TestRelativeDatum:
    def test_catalog_data_satisfy_invariants(self):
        for name in ("H27", "M27", "C3wrC3", "M243", "Q8", "E125exp25"):
            for d in catalog_relative_data(get_group(name)):
                assert d.check_invariants() == []

    def test_synthetic_datum_reports_instead_of_raising(self):
        # a hand-built datum that breaks identities is made, and each
        # broken identity is reported
        A = AbelianGroup((3,))
        B = AbelianGroup((3, 3))
        bad = RelativeExtensionDatum(
            3, A, B,
            lift=Homomorphism(A, B, [[1], [0]]),
            norm=Homomorphism(B, A, [[1, 0]]),
            sigma=Homomorphism(B, B, [[1, 1], [0, 1]]))
        assert bad.check_invariants() == [
            "norm o lift is not the p-th power map",
            "lift o norm is not the norm-element action",
            "norm is not sigma-invariant"]

    def test_made_datum_raises_on_a_broken_identity(self, monkeypatch):
        # G/G' = C3 x C27 has exponent above p, so a zero transfer breaks
        # norm o lift = p-th power map
        G = get_group("M243")
        assert G.abelianization()[0].invariant_factors == (3, 27)
        monkeypatch.setattr(gmodule, "transfer", lambda G, H: zero_hom(
            G.abelianization()[0], H.abelianization[0]))
        for H in subgroups_index_p_above_derived(G):
            with pytest.raises(GModuleError, match="datum invariants violated:"
                               " norm o lift is not the p-th power map"):
                make_relative_datum(G, H)

    def test_maps_of_the_wrong_signature_are_refused(self):
        A, B = AbelianGroup((3,)), AbelianGroup((3, 3))
        lift = Homomorphism(A, B, [[1], [0]])
        norm = Homomorphism(B, A, [[1, 0]])
        sigma = identity_hom(B)
        assert RelativeExtensionDatum(3, A, B, lift, norm, sigma).p == 3
        for maps, message in [
                ((identity_hom(B), norm, sigma), "lift has wrong signature"),
                ((norm, norm, sigma), "lift has wrong signature"),
                ((lift, lift, sigma), "norm has wrong signature"),
                ((lift, identity_hom(A), sigma), "norm has wrong signature"),
                ((lift, norm, lift), "sigma must be an endomorphism of A_L"),
                ((lift, norm, identity_hom(A)),
                 "sigma must be an endomorphism of A_L")]:
            with pytest.raises(GModuleError, match="^%s$" % message):
                RelativeExtensionDatum(3, A, B, *maps)

    @pytest.mark.parametrize("p, sigma", [
        (3, [[2, 0], [0, 2]]),      # order 2
        (3, [[0, 2], [1, 0]]),      # order 4
        (2, [[1, 1], [0, 1]]),      # order 3
        (5, [[1, 0], [1, 1]]),      # order 3
    ])
    def test_sigma_of_an_order_not_dividing_p_is_refused(self, p, sigma):
        A = AbelianGroup((3, 3))
        with pytest.raises(GModuleError,
                           match="^sigma order does not divide p$"):
            RelativeExtensionDatum(p, A, A, identity_hom(A), identity_hom(A),
                                   Homomorphism(A, A, sigma))

    def test_a_lift_outside_the_fixed_part_is_reported(self):
        # sigma = 1 + N with N^2 = 0 moves lift(1) = (1, 0) to (1, 1); with
        # a zero norm every other identity holds, since 1 + sigma + sigma^2
        # = 3 + 3N = 0 on (Z/3)^2
        A, B = AbelianGroup((3,)), AbelianGroup((3, 3))
        d = RelativeExtensionDatum(
            3, A, B, lift=Homomorphism(A, B, [[1], [0]]),
            norm=zero_hom(B, A), sigma=Homomorphism(B, B, [[1, 0], [1, 1]]))
        assert d.check_invariants() == ["lift does not land in the fixed part"]

    @pytest.mark.parametrize("p", [-1, 0, 1, 4, 3.0])
    def test_p_must_be_a_prime(self, p):
        A = AbelianGroup((3,))
        with pytest.raises(GModuleError, match="is not a prime"):
            RelativeExtensionDatum(p, A, A, lift=identity_hom(A),
                                   norm=identity_hom(A),
                                   sigma=identity_hom(A))

    def test_sigma_powers_are_composed_once(self, monkeypatch):
        # sigma^0 .. sigma^p take p - 1 compositions; the order check and
        # the norm element read them
        A = AbelianGroup((5, 5))
        sigma = Homomorphism(A, A, [[1, 1], [0, 1]])
        calls = []
        real = Homomorphism.compose
        monkeypatch.setattr(Homomorphism, "compose",
                            lambda h, k: calls.append(1) or real(h, k))
        d = RelativeExtensionDatum(5, A, A, lift=identity_hom(A),
                                   norm=identity_hom(A), sigma=sigma)
        norms = [d.norm_element_action() for _ in range(2)]
        assert len(calls) == 4
        monkeypatch.undo()
        want = identity_hom(A)
        for n in range(1, 5):
            want = want + hom_power(sigma, n)
        assert norms == [want] * 2
        assert d._sigma_powers == tuple(hom_power(sigma, n)
                                        for n in range(6))

    def test_requires_normal_index_p(self):
        G = get_group("H27")
        small = G.subgroup([G.collect(((2, 1),))])
        with pytest.raises(GModuleError):
            make_relative_datum(G, small)

    def test_index_p_subgroups_are_normal_and_contain_the_derived(self):
        # why make_relative_datum tests neither G' <= H nor normality: in a
        # p-group every subgroup of index p contains G', hence is normal.
        # Oracle: random closures, each conjugate h^g (h in H, g a
        # generator of G) looked up in H
        rng = random.Random(1)
        found = 0
        for name, G in sorted(load_catalog().items()):
            der, elements = derived_closure(G, G.generators()), G.elements()
            for _ in range(30):
                H = closure(G, rng.choices(elements, k=rng.randint(1, 3)))
                if len(H) * G.p == G.order:
                    found += 1
                    assert der <= H, name
                    assert all(G.conjugate(h, g) in H
                               for g in G.generators() for h in H), name
        assert found >= 200, found

    def test_subgroup_of_another_group_is_rejected(self):
        H = subgroups_index_p_above_derived(get_group("M27"))[0]
        with pytest.raises(PresentationError):
            make_relative_datum(get_group("H27"), H)

    def test_invariants_are_checked_once_per_datum(self, monkeypatch):
        G = get_group("M27")
        H = subgroups_index_p_above_derived(G)[0]
        calls = []
        real = gmodule.power_hom
        monkeypatch.setattr(gmodule, "power_hom",
                            lambda *a: calls.append(a) or real(*a))
        d = make_relative_datum(G, H)
        for _ in range(3):
            problems = d.check_invariants()
            assert problems == []
            problems.append("a caller's own note")
        assert len(calls) == 1
        A = AbelianGroup((3,))
        bad = RelativeExtensionDatum(
            3, A, A, lift=identity_hom(A), norm=identity_hom(A),
            sigma=identity_hom(A))
        assert len(calls) == 1  # the constructor leaves the identities alone
        first = bad.check_invariants()
        first.clear()
        assert any("p-th power" in msg for msg in bad.check_invariants())
        assert len(calls) == 2

    def test_f_property_over_catalog(self):
        for name in ("H27", "M27", "MC81a", "C3wrC3"):
            for d in catalog_relative_data(get_group(name)):
                assert f_property(d) is True

    def test_f_property_refuses_a_norm_that_sigma_moves(self):
        # A_L^s is spanned by s(0, 1) = (1, 0), which the norm sends to 1
        A, B = AbelianGroup((3,)), AbelianGroup((3, 3))
        d = RelativeExtensionDatum(
            3, A, B, lift=Homomorphism(A, B, [[1], [0]]),
            norm=Homomorphism(B, A, [[1, 0]]),
            sigma=Homomorphism(B, B, [[1, 1], [0, 1]]))
        assert "norm is not sigma-invariant" in d.check_invariants()
        with pytest.raises(GModuleError,
                           match="^ker\\(norm\\) does not contain A_L\\^s$"):
            f_property(d)

    def test_growth_classes(self):
        # cyclic C9 over its index-3 subgroup: ranks are preserved
        d = catalog_relative_data(get_group("C9"))[0]
        assert classify_growth(d) == GrowthClass.STABLE
        # elementary abelian: sigma is trivial, rank drops
        d = catalog_relative_data(get_group("C3xC3"))[0]
        assert classify_growth(d) == GrowthClass.SEMI_STABLE
        # a maximal-class group with a wild layer
        kinds = {classify_growth(x) for x in
                 catalog_relative_data(get_group("MC81a"))}
        assert GrowthClass.WILD in kinds

    def test_growth_builds_no_image_or_smith_form(self, monkeypatch):
        # the stable test reads ker N, so no image and no Smith form is made
        data = [d for G in load_catalog().values()
                if G.abelianization()[0].rank(G.p) >= 1
                for d in catalog_relative_data(G)]
        assert len(data) == 224

        def refuse(*args):
            raise AssertionError("classify_growth built an image or SNF")

        monkeypatch.setattr(Homomorphism, "image", refuse)
        monkeypatch.setattr(abgroup, "smith_normal_form", refuse)
        assert {classify_growth(d) for d in data} <= set(GrowthClass)

    def test_growth_matches_the_image_oracle_on_the_catalog(self):
        data = [d for G in load_catalog().values()
                if G.abelianization()[0].rank(G.p) >= 1
                for d in catalog_relative_data(G)]
        assert len(data) == 224
        assert [classify_growth(d) for d in data] == \
            [image_growth_oracle(d) for d in data]

    def test_growth_matches_the_image_oracle_on_hand_built_data(self):
        # A_K and A_L need not be p-groups: (6, 18) at p = 3 has 3 || 6, so
        # rk(A_K) = 2 > rk(A_K^3) = 1, while (9, 18) keeps both at 2
        rng = random.Random(24)
        shapes = [(), (2,), (3,), (9,), (27,), (5,), (25,), (6,), (3, 3),
                  (3, 9), (9, 27), (6, 18), (9, 18), (2, 6), (4, 12),
                  (5, 25), (2, 2, 4), (3, 3, 9)]
        seen, stable_split = set(), set()
        for _ in range(600):
            p = rng.choice((2, 3, 5))
            A_K = AbelianGroup(rng.choice(shapes))
            A_L = AbelianGroup(rng.choice(shapes))
            d = RelativeExtensionDatum(
                p, A_K, A_L, lift=random_hom(rng, A_K, A_L),
                norm=random_hom(rng, A_L, A_K),
                sigma=random_sigma(rng, A_L, p))
            got = classify_growth(d)
            assert got == image_growth_oracle(d), d
            seen.add(got)
            if d.norm.image().structure().rank(p) == A_L.rank(p):
                stable_split.add(any(f % p == 0 and f % (p * p)
                                     for f in A_K.invariant_factors))
        assert seen == set(GrowthClass)
        assert stable_split == {False, True}

    def test_growth_order_law_never_fails_when_applicable(self):
        for name in ("C9", "C27", "M243", "H9c243", "MC81a", "MC81b"):
            for d in catalog_relative_data(get_group(name)):
                for b in d.A_L.elements():
                    verdict = check_growth_order_law(d, b)
                    assert verdict in (True, None)


@pytest.mark.parametrize("build", [
    lambda p: parse_catalog("group X prime %d ngens 1\n" % p),
    lambda p: RelativeExtensionDatum(p, *(None,) * 5),
    lambda p: primitive_idempotents(AbelianGroup((3,)), p, 1),
    predicted_rank_distribution,
    lambda p: monte_carlo_rank_distribution(p, 10, seed=1),
    lambda p: RankDistribution(p, 1, ((2, Fraction(1)),)),
    lambda p: cli.main(["scan", "--prime", str(p), "--", "-100", "-3"]),
    lambda p: cli.main(["heuristic", str(p)]),
])
def test_a_prime_above_the_bound_is_refused_untested(monkeypatch, capsys,
                                                     build):
    # trial division of this p takes about 10^9 steps; no group of order
    # p^n is built, since PcGroup holds p^n entries per generator
    p, bound = 10 ** 18 + 3, 10 ** 8
    real = abgroup.is_prime

    def bounded(n):
        if n > bound:
            raise AssertionError("trial division of %d" % n)
        return real(n)

    for module in (abgroup, cli, heuristics, pcgroup, gmodule):
        monkeypatch.setattr(module, "is_prime", bounded, raising=False)
    refusal = "p = %d is above the bound %d" % (p, bound)
    try:
        code = build(p)
    except (CatalogError, GModuleError, HeuristicsError) as exc:
        assert str(exc).endswith(refusal)
    else:  # a command reports the refusal itself
        assert code == 2
        assert capsys.readouterr() == ("", "error: %s\n" % refusal)
