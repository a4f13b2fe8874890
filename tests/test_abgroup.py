"""Exact integer linear algebra and finite abelian group structure.

The Smith normal form is checked against first principles (U M and D span
the same column lattice with U unimodular, D's diagonal is the quotient of
successive determinantal divisors, and U^-1 is checked against an elimination
over the rationals) rather than against any fixed output, so the oracle is
independent of the implementation's pivoting.  Kernels and intersections are
checked against their element sets, found by enumeration.  Maps that
Homomorphism builds unchecked from checked ones (compositions, sums,
differences, identity, zero and power maps) are compared with the map the
checking constructor makes of a matrix computed in the test.  Trial
division (`prime_factors`, `is_prime`) is checked against sympy's
factorisation and primality test, which are test-only.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkit.abgroup import (AbelianGroup, AbgroupError, Homomorphism,
                            Subgroup, abelian_structure, hnf_rows, hom_power,
                            identity_hom, is_prime, op_power, power_hom,
                            prime_factors, quotient_coords, small_primes,
                            smith_normal_form, transpose, zero_hom)


def invert_unimodular(U):
    """Exact inverse of an integer matrix with determinant +-1, by
    elimination over the rationals: the oracle for the inverse that
    smith_normal_form keeps alongside U."""
    n = len(U)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(U)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise AbgroupError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    out = []
    for row in aug:
        vals = row[n:]
        if any(v.denominator != 1 for v in vals):
            raise AbgroupError("matrix is not unimodular")
        out.append([int(v) for v in vals])
    return out


def det_fraction(M):
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return det


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-30, 30), min_size=m, max_size=m),
            min_size=n, max_size=n)))


def determinantal_divisors(M):
    """gcd of the k x k minors of M for k = 1 .. min(rows, cols)."""
    n, m = len(M), len(M[0])
    out = []
    for k in range(1, min(n, m) + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(m), k):
                minor = det_fraction([[M[i][j] for j in cols] for i in rows])
                g = gcd(g, int(minor))
        out.append(g)
    return out


class TestSmithNormalForm:
    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_factorization_and_chain(self, M):
        n, m = len(M), len(M[0])
        D, U, Uinv = smith_normal_form(M)
        # D = U M V for a unimodular V exactly when U M and D span the same
        # lattice of columns
        assert hnf_rows(transpose(mat_mul(U, M)), n) == \
            hnf_rows(transpose(D), n)
        assert Uinv == invert_unimodular(U)
        assert abs(det_fraction(U)) == 1
        diag = [D[i][i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0
        # d_k = Delta_k / Delta_(k-1), and 0 once the minors vanish
        prev = 1
        for d, delta in zip(diag, determinantal_divisors(M)):
            assert d == (delta // prev if prev else 0)
            prev = delta

    def test_known_diagonal(self):
        D, _, _ = smith_normal_form([[2, 0], [0, 4]])
        assert [D[0][0], D[1][1]] == [2, 4]
        D, _, _ = smith_normal_form([[2, 0], [0, 3]])
        assert [D[0][0], D[1][1]] == [1, 6]

    def test_zero_matrix(self):
        D, _, _ = smith_normal_form([[0, 0], [0, 0]])
        assert D == [[0, 0], [0, 0]]


class TestLinearSolvers:
    def test_invert_unimodular(self):
        U = [[2, 1], [1, 1]]
        Ui = invert_unimodular(U)
        assert mat_mul(U, Ui) == [[1, 0], [0, 1]]
        with pytest.raises(AbgroupError):
            invert_unimodular([[2, 0], [0, 1]])


class TestHnf:
    def test_canonical_for_row_order(self):
        rows = [[2, 3], [4, 1]]
        assert hnf_rows(rows, 2) == hnf_rows(rows[::-1], 2)

    @given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_membership_preserved(self, rows):
        basis = hnf_rows(rows, 3)
        # every input row must be an integer combination of the basis
        for r in rows:
            v = list(r)
            for i, b in enumerate(basis):
                lead = next((j for j, x in enumerate(b) if x), None)
                if lead is None:
                    continue
                if v[lead] % b[lead] == 0:
                    q = v[lead] // b[lead]
                    v = [a - q * c for a, c in zip(v, b)]
            assert not any(v)


class TestAbelianGroup:
    def test_requires_divisibility_chain(self):
        with pytest.raises(AbgroupError):
            AbelianGroup((4, 2))
        with pytest.raises(AbgroupError):
            AbelianGroup((1, 2))

    @pytest.mark.parametrize("invs", [(2.9,), ["4"], (2, 4.0)])
    def test_rejects_entries_that_are_not_ints(self, invs):
        # int() would truncate 2.9 to a C2 and read "4" as C4
        with pytest.raises(AbgroupError, match="must be ints"):
            AbelianGroup(invs)

    def test_order_rank_exponent(self):
        A = AbelianGroup((2, 4, 4))
        assert A.order() == 32
        assert A.exponent() == 4
        assert A.rank(2) == 3
        assert A.rank(3) == 0

    def test_trivial_group(self):
        T = AbelianGroup(())
        assert T.order() == 1
        assert list(T.elements()) == [()]

    @given(st.sampled_from([(2,), (4,), (2, 2), (3, 9), (2, 6), (5, 5)]),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_element_order_divides_exponent(self, invs, data):
        A = AbelianGroup(invs)
        x = data.draw(st.sampled_from(list(A.elements())))
        o = A.element_order(x)
        assert A.exponent() % o == 0
        assert A.scale(o, x) == A.zero()
        for k in range(1, o):
            assert A.scale(k, x) != A.zero()


class TestHomomorphism:
    def test_kernel_of_twisted_projection(self):
        # C3 x C9 -> C9 sending the second generator to its cube has the
        # order-9 kernel generated by the first generator and the cube of
        # the second
        A = AbelianGroup((3, 9))
        B = AbelianGroup((9,))
        h = Homomorphism(A, B, [[0, 3]])
        ker = h.kernel()
        assert ker.order() == 9
        assert ker.contains((1, 0)) and ker.contains((0, 3))
        assert not ker.contains((0, 1))

    @pytest.mark.parametrize("mat", [[[1.5]], [["1"]], [[2.0]]])
    def test_rejects_entries_that_are_not_ints(self, mat):
        C4 = AbelianGroup((4,))
        with pytest.raises(AbgroupError, match="must be ints"):
            Homomorphism(C4, C4, mat)

    def test_image_and_kernel_orders_multiply(self):
        rng = random.Random(7)
        for invs in [(2, 4), (3, 3), (3, 9), (2, 2, 4), (6,)]:
            A = AbelianGroup(invs)
            for _ in range(10):
                mat = [[rng.randrange(12) for _ in invs] for _ in invs]
                try:
                    h = Homomorphism(A, A, mat)
                except AbgroupError:
                    continue
                assert h.kernel().order() * h.image().order() == A.order()

    def test_compose_and_power(self):
        A = AbelianGroup((8,))
        d = power_hom(A, 2)
        assert hom_power(d, 3) == power_hom(A, 8)
        assert d.compose(d) == power_hom(A, 4)
        assert identity_hom(A).compose(d) == d
        assert zero_hom(A, A) + d == d

    def test_hom_power_is_repeated_composition(self):
        # square-and-multiply against n compositions from the identity
        rng = random.Random(19)
        for invs, p in [((3, 9), 3), ((5, 5), 5), ((2, 4, 8), 2),
                        ((3, 3, 3), 3)]:
            A = AbelianGroup(invs)
            endos = []
            while len(endos) < 4:
                mat = [[rng.randrange(d) for _ in invs] for d in invs]
                try:
                    endos.append(Homomorphism(A, A, mat))
                except AbgroupError:
                    continue  # not well defined on A
            for h in endos:
                want = identity_hom(A)
                for n in range(2 * p + 1):
                    assert hom_power(h, n) == want
                    want = h.compose(want)
        with pytest.raises(AbgroupError):
            hom_power(h, -1)
        with pytest.raises(AbgroupError):
            hom_power(zero_hom(A, AbelianGroup((2,))), 2)

    def test_derived_maps_equal_checked_rebuilds(self):
        # compose, +, -, identity_hom, zero_hom, power_hom and hom_power
        # build their maps unchecked; each must equal the map that the
        # checking constructor makes of the matrix computed here
        def group(rng, p):
            return AbelianGroup(sorted(p ** rng.randint(1, 3)
                                       for _ in range(rng.randint(0, 3))))

        def valid_map(rng, A, B):
            # d_j m = 0 mod e_i exactly for the multiples m of e_i / (d_j, e_i)
            return Homomorphism(A, B, [
                [rng.randrange(-2 * e, 2 * e) * (e // gcd(d, e))
                 for d in A.invariant_factors] for e in B.invariant_factors])

        def scalar(A, n):
            return [[n * (i == j) for j in range(A.ngens)]
                    for i in range(A.ngens)]

        rng = random.Random(23)
        for _ in range(300):
            p = rng.choice((2, 3, 5))
            A, B, C = group(rng, p), group(rng, p), group(rng, p)
            f, g, h, e = (valid_map(rng, A, B), valid_map(rng, A, B),
                          valid_map(rng, B, C), valid_map(rng, A, A))
            n = rng.randrange(-40, 40)
            composed = [[sum(h.matrix[i][k] * f.matrix[k][j]
                             for k in range(B.ngens))
                         for j in range(A.ngens)] for i in range(C.ngens)]
            pairs = [
                (h.compose(f), Homomorphism(A, C, composed)),
                (f + g, Homomorphism(A, B, [list(map(sum, zip(r, s)))
                                            for r, s in zip(f.matrix,
                                                            g.matrix)])),
                (f - g, Homomorphism(A, B, [[a - b for a, b in zip(r, s)]
                                            for r, s in zip(f.matrix,
                                                            g.matrix)])),
                (identity_hom(A), Homomorphism(A, A, scalar(A, 1))),
                (zero_hom(A, B), Homomorphism(A, B,
                                              [[0] * A.ngens] * B.ngens)),
                (power_hom(A, n), Homomorphism(A, A, scalar(A, n))),
            ]
            want = Homomorphism(A, A, scalar(A, 1))
            for k in range(6):
                pairs.append((hom_power(e, k), want))
                want = Homomorphism(A, A, mat_mul(e.matrix, want.matrix)
                                    if A.ngens else [])
            for derived, rebuilt in pairs:
                assert derived == rebuilt
                assert hash(derived) == hash(rebuilt)
                assert type(derived.matrix) is tuple
                assert all(type(row) is tuple for row in derived.matrix)
                assert all(type(x) is int for row in derived.matrix
                           for x in row)

    def test_rejects_ill_defined_map(self):
        A = AbelianGroup((2,))
        B = AbelianGroup((4,))
        with pytest.raises(AbgroupError):
            Homomorphism(A, B, [[1]])  # generator of order 2 cannot hit order 4

    def test_matrix_is_reduced_mod_the_target_factors(self):
        # row i is reduced mod d_i, so matrices that agree mod d_i give the
        # same map with the same matrix and the same hash
        A = AbelianGroup((3, 9))
        B = AbelianGroup((3, 27))
        rng = random.Random(11)
        for _ in range(20):
            base = [[rng.randrange(3) for _ in range(2)],
                    [9 * rng.randrange(3), 3 * rng.randrange(9)]]
            shifted = [[x + 3 * rng.randrange(-5, 6) for x in base[0]],
                       [x + 27 * rng.randrange(-5, 6) for x in base[1]]]
            f, g = Homomorphism(A, B, base), Homomorphism(A, B, shifted)
            assert f.matrix == g.matrix == tuple(map(tuple, base))
            assert f == g and hash(f) == hash(g)
        h = Homomorphism(A, A, [[-1, 0], [0, 10]])
        assert h.matrix == ((2, 0), (0, 1))
        assert (h - h).is_zero() and (h - h).matrix == ((0, 0), (0, 0))


class TestSubgroup:
    def test_malformed_input_raises(self):
        # checked by exceptions, which `python -O` keeps
        bad = Subgroup(AbelianGroup((4,)), ((3,),))  # 3Z does not hold 4Z
        with pytest.raises(AbgroupError):
            bad.order()
        with pytest.raises(AbgroupError):
            bad.structure()

    def test_orders_in_c2_x_c4(self):
        A = AbelianGroup((2, 4))
        assert Subgroup.trivial(A).order() == 1
        assert Subgroup.full(A).order() == 8
        assert Subgroup.from_generators(A, [(0, 2)]).order() == 2
        assert Subgroup.from_generators(A, [(1, 1)]).order() == 4

    def test_join_and_intersection_are_lattice_ops(self):
        A = AbelianGroup((4, 4))
        H = Subgroup.from_generators(A, [(1, 0)])
        K = Subgroup.from_generators(A, [(0, 1)])
        assert H.join(K) == Subgroup.full(A)
        assert H.intersection(K) == Subgroup.trivial(A)
        L = Subgroup.from_generators(A, [(2, 2)])
        assert H.join(L).order() == 8
        assert H.intersection(L).order() == 1

    @given(st.sampled_from([(2, 4), (3, 3), (3, 9), (2, 2, 2)]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_structure_matches_enumeration(self, invs, data):
        A = AbelianGroup(invs)
        gens = data.draw(st.lists(st.sampled_from(list(A.elements())),
                                  min_size=0, max_size=3))
        H = Subgroup.from_generators(A, gens)
        elems = H.elements()
        assert len(elems) == H.order()
        S = H.structure()
        assert S.order() == H.order()
        # closure under addition
        for g in gens:
            for e in elems[:5]:
                assert A.add(g, e) in set(elems)

    def test_coords_are_an_isomorphism(self):
        A = AbelianGroup((2, 8))
        H = Subgroup.from_generators(A, [(1, 2)])
        S, to_coords, gens = H.structure_with_coords()
        seen = set()
        for e in H.elements():
            c = to_coords(e)
            rebuilt = A.zero()
            for ci, g in zip(c, gens):
                rebuilt = A.add(rebuilt, A.scale(ci, g))
            assert rebuilt == e
            seen.add(c)
        assert len(seen) == H.order()
        A = AbelianGroup((7, 343))
        H = Subgroup.from_generators(A, [(1, 49)])
        assert H.structure().invariant_factors == (7,)
        assert isinstance(H.structure_with_coords()[2], tuple)


oracle_groups = st.sampled_from([(), (2,), (2, 4), (3, 9), (2, 2, 4), (3, 3, 3)])


def span_by_closure(A, gens):
    """Element set of the subgroup of A generated by gens, closed under
    addition by breadth-first search."""
    seen = {A.zero()}
    frontier = [A.zero()]
    while frontier:
        frontier = [y for y in {A.add(x, A.reduce(g))
                                for x in frontier for g in gens}
                    if y not in seen]
        seen.update(frontier)
    return seen


class TestLatticeOracles:
    """Kernels and intersections, which the Hermite form computes, against
    element sets found by enumeration."""

    @given(oracle_groups, oracle_groups, st.data())
    @settings(max_examples=120, deadline=None)
    def test_kernel_is_the_zero_set(self, src, tgt, data):
        A, B = AbelianGroup(src), AbelianGroup(tgt)
        # entry (i, j) is a multiple of d_i / gcd(d_i, d_j), so that the
        # order of source generator j kills its image
        mat = [[di // gcd(di, dj) * data.draw(st.integers(0, di - 1))
                for dj in src] for di in tgt]
        h = Homomorphism(A, B, mat)
        ker = h.kernel()
        assert set(ker.elements()) == \
            {x for x in A.elements() if h(x) == B.zero()}

    @given(oracle_groups, st.data())
    @settings(max_examples=120, deadline=None)
    def test_intersection_is_the_common_set(self, invs, data):
        A = AbelianGroup(invs)
        gen_lists = st.lists(st.sampled_from(list(A.elements())), max_size=3)
        g1, g2 = data.draw(gen_lists), data.draw(gen_lists)
        H = Subgroup.from_generators(A, g1)
        K = Subgroup.from_generators(A, g2)
        common = span_by_closure(A, g1) & span_by_closure(A, g2)
        assert set(H.intersection(K).elements()) == common
        assert H.intersection(K) == K.intersection(H)


def element_order(x, op, identity):
    """Order of x by repeated composition."""
    k, y = 1, x
    while y != identity:
        y = op(y, x)
        k += 1
    return k


class TestAbelianStructure:
    def test_op_power_is_repeated_addition(self):
        # in Z/97 under addition, g^k is k g; the identity is never a factor
        for k in range(70):
            calls = []

            def op(a, b):
                assert 0 not in (a, b)
                calls.append(1)
                return (a + b) % 97

            assert op_power(5, k, op, 0) == 5 * k % 97
            assert len(calls) <= 2 * max(k.bit_length() - 1, 0)

    def test_cyclic_from_modular_addition(self):
        for n in (1, 2, 6, 12):
            res = abelian_structure(list(range(n)), lambda a, b: (a + b) % n, 0)
            expected = () if n == 1 else (n,)
            assert res.group.invariant_factors == expected

    def test_coords_respect_the_operation(self):
        n, m = 4, 6
        elems = [(a, b) for a in range(n) for b in range(m)]

        def op(x, y):
            return ((x[0] + y[0]) % n, (x[1] + y[1]) % m)

        res = abelian_structure(elems, op, (0, 0))
        assert res.group.invariant_factors == (2, 12)
        G = res.group
        for x in elems[::5]:
            for y in elems[::7]:
                assert res.coords(op(x, y)) == G.add(res.coords(x),
                                                     res.coords(y))

    def test_cofactor_spans_the_sylow_part(self):
        # Z/4 x Z/6 x Z/9: 2-part C2 x C4, 3-part C3 x C9, together C6 x C36
        mods = (4, 6, 9)
        elems = list(itertools.product(*(range(m) for m in mods)))

        def op(x, y):
            return tuple((a + b) % m for a, b, m in zip(x, y, mods))

        ident = (0, 0, 0)
        assert abelian_structure(elems, op, ident).group.invariant_factors \
            == (6, 36)
        # |G| = 216 = 2^3 * 3^3: the 27th powers span the 2-part, the 8th
        # powers the 3-part
        two = abelian_structure([op_power(x, 27, op, ident) for x in elems],
                                op, ident, order=8)
        three = abelian_structure([op_power(x, 8, op, ident) for x in elems],
                                  op, ident, order=27)
        assert two.group.invariant_factors == (2, 4)
        assert three.group.invariant_factors == (3, 9)
        for res, q in ((two, 2), (three, 3)):
            # the span is the q-part: the elements of order dividing q^v;
            # the lazy generators have the orders of its invariant factors
            qv = len(res._span)
            assert set(res._span) == \
                {x for x in elems if qv % element_order(x, op, ident) == 0}
            for g, d in zip(res.generators, res.group.invariant_factors):
                assert element_order(g, op, ident) == d

    def test_cofactor_must_divide_and_span(self):
        n = 12
        elems = list(range(n))

        def op(a, b):
            return (a + b) % n

        # 5 does not divide 12: the 5th powers span all of C12, not 12 // 5
        with pytest.raises(AbgroupError, match="span 12 elements, not 2"):
            abelian_structure([5 * x % n for x in elems], op, 0, order=2)
        # 2 is no Hall cofactor of |C2 x C2| = 4: the squares span only
        # the identity, not 4 / 2 elements
        klein = [(0, 0), (0, 1), (1, 0), (1, 1)]

        def xor(x, y):
            return (x[0] ^ y[0], x[1] ^ y[1])

        with pytest.raises(AbgroupError, match="span 1 elements, not 2"):
            abelian_structure([op_power(x, 2, xor, (0, 0)) for x in klein],
                              xor, (0, 0), order=2)
        assert abelian_structure([12 * x % n for x in elems], op, 0,
                                 order=1).group.invariant_factors == ()

    def test_quotient_coords_chain(self):
        # Z^2 / <(2,0),(0,4)> = C2 x C4
        invs, coord_fn, gens = quotient_coords([[2, 0], [0, 4]], 2)
        assert tuple(invs) == (2, 4)
        assert coord_fn([2, 0]) == (0, 0)
        assert coord_fn([0, 4]) == (0, 0)


# the edges of the prime table, whose last prime is 9973: 10007^2 is the
# least n whose least prime factor lies past the table
TABLE_EDGES = (1, 2, 9973, 9973 ** 2, 9973 * 10007, 10007, 99_999_989,
               10 ** 8, 10 ** 8 + 7, 10007 ** 2)


class TestTrialDivision:
    @pytest.mark.parametrize("n", TABLE_EDGES)
    def test_matches_sympy_at_the_table_edges(self, n):
        sympy = pytest.importorskip("sympy")
        assert small_primes()[-1] == 9973
        assert prime_factors(n) == prime_factors(-n) == sympy.primefactors(n)
        assert is_prime(n) == sympy.isprime(n)

    @pytest.mark.parametrize("lo, hi, count", [(1, 10 ** 8, 300),
                                               (10 ** 8 + 1, 10 ** 12, 20)])
    def test_matches_sympy_on_seeded_n(self, lo, hi, count):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(36)
        for n in (rng.randint(lo, hi) for _ in range(count)):
            assert prime_factors(n) == sympy.primefactors(n), n
            assert is_prime(n) == sympy.isprime(n), n

    def test_only_an_int_is_factored(self):
        for n in (23.0, -23.0, "23", None):
            with pytest.raises(AbgroupError, match="is not an int"):
                prime_factors(n)
            assert not is_prime(n)
