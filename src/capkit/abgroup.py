"""Exact linear algebra over Z and finite abelian groups.

Everything here works with arbitrary-precision Python integers.  Matrices are
plain lists/tuples of rows.  Finite abelian groups are kept in invariant-factor
form d1 | d2 | ... | dk; elements are exponent tuples reduced mod di.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, compress, count, product
from math import gcd, isqrt, prod
from operator import mul

from .value import value_type


class AbgroupError(ValueError):
    pass


MAX_PRIME = 10 ** 8  # bounds a p from outside: is_prime is trial division


@lru_cache(maxsize=1)
def small_primes():
    """The primes up to isqrt(MAX_PRIME), by Eratosthenes' sieve: the
    package's one prime table."""
    n = isqrt(MAX_PRIME)
    flags = bytearray(b"\0\0" + b"\1" * (n - 1))
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), flags))


def prime_factors(n):
    """Distinct prime factors of the int n, ascending: trial division by the
    table, then by the odd d past it, which only |n| > 9973^2 reaches."""
    if not isinstance(n, int):
        raise AbgroupError("%r is not an int" % (n,))
    n, out = abs(n), []
    for d in chain(small_primes(), count(small_primes()[-1] + 2, 2)):
        if d * d > n:
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
    if n > 1:
        out.append(n)
    return out


def is_prime(n):
    """Whether n is a prime int; callers bound an n from outside."""
    return isinstance(n, int) and n >= 2 and prime_factors(n) == [n]


def check_prime(p, error):
    """Raise error unless p is a prime <= MAX_PRIME, testing none above."""
    if isinstance(p, int) and p > MAX_PRIME:
        raise error("p = %d is above the bound %d" % (p, MAX_PRIME))
    if not is_prime(p):
        raise error("p = %r is not a prime" % (p,))


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    return [sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A))]


def transpose(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def smith_normal_form(M):
    """Return (D, U, Uinv) with D = U*M*V for some unimodular V, U unimodular,
    Uinv the inverse of U, D diagonal with D[0][0] | D[1][1] | ... .
    Pivoting picks the smallest nonzero entry."""
    A = [list(row) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity(m)
    Uinv = _identity(m)  # each row operation on U is undone on its columns

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for row in Uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):  # row_i += q * row_j
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= q * row[i]

    def add_col(i, j, q):  # col_i += q * col_j
        for row in A:
            row[i] += q * row[j]

    t = 0
    while t < min(m, n):
        # locate smallest nonzero pivot in the trailing block
        pi = pj = -1
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = A[i][j]
                if a and (best is None or abs(a) < best):
                    best = abs(a)
                    pi, pj = i, j
        if best is None:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)

        while True:
            # clear column t
            dirty = False
            for i in range(m):
                if i != t and A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(i, t, -q)
                    if A[i][t]:
                        swap_rows(i, t)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(n):
                if j != t and A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(j, t, -q)
                    if A[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
            for row in Uinv:
                row[t] = -row[t]
        t += 1
    return A, U, Uinv


def hnf_rows(vectors, n):
    """Unique row-style Hermite normal form of the lattice spanned by the
    given row vectors in Z^n.  Rows are returned in echelon order with
    positive pivots and entries above each pivot reduced into [0, pivot)."""
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    col = 0
    while col < n and rows:
        live = [r for r in rows if r[col]]
        rest = [r for r in rows if not r[col]]
        if not live:
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            nxt = []
            for r in live[1:]:
                q = r[col] // piv[col]
                r = [a - q * b for a, b in zip(r, piv)]
                (nxt if r[col] else rest).append(r)
            live = [piv] + nxt
        piv = live[0]
        if piv[col] < 0:
            piv = [-a for a in piv]
        basis.append(piv)
        rows = rest
        col += 1
    # reduce entries above pivots
    for k, row in enumerate(basis):
        p = next(j for j in range(n) if row[j])
        for r in range(k):
            q = basis[r][p] // row[p]
            if q:
                basis[r] = [a - q * b for a, b in zip(basis[r], row)]
    return [tuple(r) for r in basis]


def quotient_coords(relation_rows, ngens):
    """Structure of Z^ngens modulo the span of the relation rows.

    Returns (invariants, coord_fn, generator_vectors): the invariant factors
    (each > 1), a map from an exponent vector to canonical coordinates, and
    one Z^ngens representative per invariant factor.
    """
    if ngens == 0:
        return (), (lambda c: ()), []
    rels = [list(r) for r in relation_rows]
    if not rels:
        raise AbgroupError("quotient is infinite")
    M = transpose(rels)  # relations as columns, ngens x r
    D, U, Uinv = smith_normal_form(M)
    r = len(rels)
    diag = [D[i][i] if i < min(ngens, r) else 0 for i in range(ngens)]
    if any(d == 0 for d in diag):
        raise AbgroupError("quotient is infinite")
    kept = [i for i in range(ngens) if diag[i] != 1]
    invariants = tuple(diag[i] for i in kept)

    def coord_fn(c):
        return tuple(sum(U[i][j] * c[j] for j in range(ngens)) % diag[i]
                     for i in kept)

    genvecs = [[Uinv[row][i] for row in range(ngens)] for i in kept]
    return invariants, coord_fn, genvecs


# ---------------------------------------------------------------------------
# finite abelian groups
# ---------------------------------------------------------------------------

@value_type("invariant_factors")
class AbelianGroup:
    """Finite abelian group in invariant-factor form d1 | d2 | ... | dk,
    ints >= 2."""

    def __init__(self, invariant_factors):
        facs = tuple(invariant_factors)
        if not all(isinstance(d, int) for d in facs):
            raise AbgroupError("invariant factors must be ints")
        if any(d < 2 for d in facs):
            raise AbgroupError("invariant factors must be >= 2")
        for a, b in zip(facs, facs[1:]):
            if b % a:
                raise AbgroupError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "invariant_factors", facs)

    @property
    def ngens(self):
        return len(self.invariant_factors)

    def order(self):
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def exponent(self):
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def rank(self, p):
        return sum(1 for d in self.invariant_factors if d % p == 0)

    def zero(self):
        return (0,) * self.ngens

    def reduce(self, vec):
        return tuple(v % d for v, d in zip(vec, self.invariant_factors))

    def add(self, x, y):
        return tuple((a + b) % d
                     for a, b, d in zip(x, y, self.invariant_factors))

    def scale(self, n, x):
        return tuple((n * a) % d for a, d in zip(x, self.invariant_factors))

    def element_order(self, x):
        o = 1
        for a, d in zip(x, self.invariant_factors):
            o = o * (d // gcd(a, d)) // gcd(o, d // gcd(a, d))
        return o

    def elements(self):
        return product(*(range(d) for d in self.invariant_factors))


@value_type("source", "target", "matrix")
class Homomorphism:
    """Map between finite abelian groups; column j of `matrix` is the image
    of the j-th source generator, and row i is reduced mod the target's
    i-th invariant factor, so each map has exactly one matrix.

    Homomorphism(source, target, matrix) is the one public constructor: it
    checks the shape, that the entries are ints and that column j respects
    the order d_j of the j-th source generator (d_j times the column is 0
    in the target).  Every map given from outside this module goes through
    it.  The maps that compose, + and - build from two maps, and
    identity_hom, zero_hom and power_hom, are homomorphisms by construction
    (a product or sum of homomorphisms is one), so Homomorphism._derived
    only reduces their entries."""

    def __init__(self, source, target, matrix):
        # matrix: target.ngens rows x source.ngens cols
        kt, ks = target.ngens, source.ngens
        if len(matrix) != kt or any(len(row) != ks for row in matrix):
            raise AbgroupError("homomorphism matrix has wrong shape")
        if not all(isinstance(x, int) for row in matrix for x in row):
            raise AbgroupError("homomorphism matrix entries must be ints")
        mat = tuple(tuple(x % di for x in row) for row, di
                    in zip(matrix, target.invariant_factors))
        for j, dj in enumerate(source.invariant_factors):
            for i, di in enumerate(target.invariant_factors):
                if (dj * mat[i][j]) % di:
                    raise AbgroupError(
                        "matrix column %d does not respect source order %d" % (j, dj))
        self._set(source, target, mat)

    def _set(self, source, target, mat):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _derived(cls, source, target, rows):
        """The map with integer rows `rows`, known to be a homomorphism:
        the entries are reduced, nothing is checked."""
        self = cls.__new__(cls)
        self._set(source, target,
                  tuple(tuple(x % di for x in row) for row, di
                        in zip(rows, target.invariant_factors)))
        return self

    def __call__(self, vec):
        return self.target.reduce(mat_vec(self.matrix, vec))

    def compose(self, other):
        """self o other."""
        if other.target != self.source:
            raise AbgroupError("composition mismatch")
        # the column count is other.source.ngens, also when there are no
        # inner rows to read it from
        cols = (list(zip(*other.matrix)) if other.matrix
                else [()] * other.source.ngens)
        return Homomorphism._derived(
            other.source, self.target,
            [[sum(map(mul, row, col)) for col in cols] for row in self.matrix])

    def _plus(self, other, sign, what):
        if (other.source, other.target) != (self.source, self.target):
            raise AbgroupError("%s mismatch" % what)
        return Homomorphism._derived(
            self.source, self.target,
            [[a + sign * b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.matrix, other.matrix)])

    def __add__(self, other):
        return self._plus(other, 1, "sum")

    def __sub__(self, other):
        return self._plus(other, -1, "difference")

    def kernel(self):
        """The x with M x in diag(d) Z^kt: tails of the rows (M e_j, e_j)
        and (d_i e_i, 0) whose target part is zero."""
        ks, dt = self.source.ngens, self.target.invariant_factors
        rows = [[row[j] for row in self.matrix] + [int(i == j) for i in range(ks)]
                for j in range(ks)]
        rows += [[d if i == j else 0 for i in range(len(dt))] + [0] * ks
                 for j, d in enumerate(dt)]
        return Subgroup._zero_head_tails(self.source, rows)

    def image(self):
        return Subgroup.from_generators(self.target, transpose(self.matrix))

    def is_zero(self):
        return not any(map(any, self.matrix))


def identity_hom(A):
    return power_hom(A, 1)


def zero_hom(source, target):
    return Homomorphism._derived(source, target,
                                 [[0] * source.ngens for _ in range(target.ngens)])


def power_hom(A, n):
    """Multiplication by the integer n (the n-th power map written
    additively)."""
    return Homomorphism._derived(A, A, [[n if i == j else 0
                                         for j in range(A.ngens)]
                                        for i in range(A.ngens)])


def hom_power(h, n):
    """n-fold composition of an endomorphism, n >= 0, by square-and-multiply."""
    if h.source != h.target:
        raise AbgroupError("iterate needs an endomorphism")
    if n < 0:
        raise AbgroupError("iterate needs n >= 0")
    return op_power(h, n, Homomorphism.compose, identity_hom(h.source))


# ---------------------------------------------------------------------------
# subgroups via canonical HNF lattices
# ---------------------------------------------------------------------------

@value_type("ambient", "basis")
class Subgroup:
    """Subgroup of an AbelianGroup, stored as the HNF basis of the full-rank
    lattice L with diag(d) <= L <= Z^k.  Equality of subgroups is equality
    of the canonical basis."""

    def __init__(self, ambient, basis):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)  # k x k HNF rows

    @classmethod
    def from_generators(cls, ambient, gens):
        k = ambient.ngens
        rows = [list(g) for g in gens]
        rows += [[ambient.invariant_factors[i] if j == i else 0 for j in range(k)]
                 for i in range(k)]
        return cls(ambient, tuple(hnf_rows(rows, k)))

    @classmethod
    def trivial(cls, ambient):
        return cls.from_generators(ambient, [])

    @classmethod
    def _zero_head_tails(cls, ambient, rows):
        """Subgroup of the tails t, the last ambient.ngens entries, of the
        vectors (0, t) in the span of rows.  In echelon order these are the
        last HNF rows, so the tails are already the canonical basis."""
        k = ambient.ngens
        n = len(rows[0]) if rows else k
        return cls(ambient, tuple(r[n - k:] for r in hnf_rows(rows, n)
                                  if not any(r[:n - k])))

    @classmethod
    def full(cls, ambient):
        k = ambient.ngens
        return cls(ambient, tuple(tuple(int(i == j) for j in range(k))
                                  for i in range(k)))

    def order(self):
        det = prod(self.basis[i][i] for i in range(len(self.basis)))
        total = self.ambient.order()
        if total % det:
            raise AbgroupError("subgroup lattice does not contain diag(d)")
        return total // det

    def _basis_coords(self, vec):
        """The unique y with y * basis = vec, by substitution down the
        diagonal pivots of the HNF basis; None when vec is not in the
        lattice."""
        v = list(vec)
        y = []
        for i, row in enumerate(self.basis):
            q = v[i] // row[i]  # a remainder stays in v[i]
            y.append(q)
            v = [a - q * b for a, b in zip(v, row)]
        return None if any(v) else y

    def contains(self, vec):
        return self._basis_coords(vec) is not None

    def contains_subgroup(self, other):
        return all(self.contains(row) for row in other.basis)

    def generators(self):
        out = []
        for row in self.basis:
            v = self.ambient.reduce(row)
            if any(v):
                out.append(v)
        return out

    def join(self, other):
        if other.ambient != self.ambient:
            raise AbgroupError("ambient mismatch")
        return Subgroup.from_generators(self.ambient,
                                        list(self.basis) + list(other.basis))

    def intersection(self, other):
        if other.ambient != self.ambient:
            raise AbgroupError("ambient mismatch")
        # Zassenhaus: (b + c, b) with zero head has b = -c in both lattices
        k = self.ambient.ngens
        rows = [list(b) * 2 for b in self.basis] + \
               [list(c) + [0] * k for c in other.basis]
        return Subgroup._zero_head_tails(self.ambient, rows)

    def _relation_rows(self):
        """Rows of diag(d) expressed in the basis of the lattice."""
        k = self.ambient.ngens
        rows = []
        for i in range(k):
            target = [self.ambient.invariant_factors[i] if j == i else 0
                      for j in range(k)]
            y = self._basis_coords(target)
            if y is None:
                raise AbgroupError("subgroup lattice does not contain diag(d)")
            rows.append(y)
        return rows

    def structure(self):
        """Invariant factors of the subgroup itself."""
        return self.structure_with_coords()[0]

    def structure_with_coords(self):
        """(structure, to_coords, generators): coordinates of subgroup elements
        in an invariant-factor decomposition; the generators are a tuple."""
        k = self.ambient.ngens
        if k == 0 or self.order() == 1:
            return AbelianGroup(()), (lambda vec: ()), ()
        invariants, coord_fn, genvecs = quotient_coords(self._relation_rows(), k)
        B = [list(r) for r in self.basis]

        def to_coords(vec):
            y = self._basis_coords(vec)
            if y is None:
                raise AbgroupError("element not in subgroup")
            return coord_fn(y)

        gens = tuple(self.ambient.reduce([sum(g[i] * B[i][c] for i in range(k))
                                          for c in range(k)])
                     for g in genvecs)
        return AbelianGroup(invariants), to_coords, gens

    def elements(self):
        S, _, gens = self.structure_with_coords()
        seen = set()
        for coeffs in S.elements():
            v = self.ambient.zero()
            for c, g in zip(coeffs, gens):
                v = self.ambient.add(v, self.ambient.scale(c, g))
            seen.add(v)
        if len(seen) != self.order():
            raise AbgroupError("inconsistent subgroup enumeration")
        return sorted(seen)

    def image_under(self, hom):
        return Subgroup.from_generators(hom.target,
                                        [hom(g) for g in self.generators()])


# ---------------------------------------------------------------------------
# structure of an abstractly-presented finite abelian group
# ---------------------------------------------------------------------------

class StructureResult:
    """Structure of an abstractly presented finite abelian group: `group` in
    invariant-factor form, `generators` (one element per invariant factor,
    computed on first read) and `coords(elem)`, the coordinates of an
    element in that basis."""

    def __init__(self, group, span, coord_fn, generator_fn):
        self.group = group
        self._span = span          # element -> exponents of the greedy gens
        self._coord_fn = coord_fn
        self._generator_fn = generator_fn

    @cached_property
    def generators(self):
        return self._generator_fn()

    def coords(self, elem):
        return self._coord_fn(self._span[elem])


def op_power(g, k, op, identity):
    """g^k for k >= 0 in the group with law `op`, by square-and-multiply:
    at most 2 log2(k) products, and the first factor is not composed with
    the identity."""
    y = None
    while k:
        if k & 1:
            y = g if y is None else op(y, g)
        k >>= 1
        if k:
            g = op(g, g)
    return identity if y is None else y


def abelian_structure(elements, op, identity, order=None):
    """Greedy generator selection with a relation lattice, invariant factors
    by Smith normal form, of the subgroup of `order` elements spanned by
    `elements`.  Iteration order fixes the generator choice and hence
    determinism; the elements are visited only until they span `order`
    elements, so they may be drawn lazily.  AbgroupError says that they
    span fewer or more.

    By default `elements` lists every element of a finite abelian group
    exactly once and `order` is len(elements), so the span is the whole
    group.  A Sylow part is spanned by powers the caller computes: with a
    Hall cofactor c of the group order n (gcd(c, n // c) = 1), the c-th
    powers of the elements span the subgroup of order n // c."""
    m = len(elements) if order is None else order
    span = {identity: ()}
    gens = []
    rels = []
    for x in elements:
        if len(span) == m:
            break
        if x in span:
            continue
        # minimal e >= 1 with x^e inside the current span; the powers
        # x^0 .. x^(e-1) are the identity's coset in the new span
        powers = [identity]
        y = x
        while y not in span:
            powers.append(y)
            y = op(y, x)
        e = len(powers)
        v = span[y]
        rels.append(tuple(-c for c in v) + (e,))
        new_span = {}
        for elem, c in span.items():
            if elem == identity:
                for j, z in enumerate(powers):
                    new_span[z] = c + (j,)
                continue
            z = elem
            for j in range(e):
                new_span[z] = c + (j,)
                if j + 1 < e:
                    z = op(z, x)
        span = new_span
        gens.append(x)
    if len(span) != m:
        raise AbgroupError("the elements span %d elements, not %d"
                           % (len(span), m))
    T = len(gens)
    padded = [list(r) + [0] * (T - len(r)) for r in rels]
    invariants, coord_fn, genvecs = quotient_coords(padded, T)
    group = AbelianGroup(invariants)
    if group.order() != m:
        raise AbgroupError("structure order mismatch")

    def generator_fn():
        out = []
        for gv in genvecs:
            elem = identity
            for g, c in zip(gens, gv):
                # g^m = identity for the span's order m
                elem = op(elem, op_power(g, c % m, op, identity))
            out.append(elem)
        return out

    return StructureResult(group, span, coord_fn, generator_fn)
