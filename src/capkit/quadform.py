"""Class groups of imaginary quadratic orders via positive definite binary
quadratic forms: Gauss reduction, composition, sieves of the reduced forms
over a range of discriminants, and invariant factors of the form class group.

A scan never lists the reduced forms.  One counting sieve over a range of
discriminants gives each class number h and the few ambiguous forms; the
Sylow parts that these do not force take their elements from prime forms
of norm <= sqrt(|D|/3), computed only as far as a part reads them (see
`class_group_structure`).  The forms themselves are listed by a second
sieve, for `enumerate_reduced`, for the generators a structure gives on
request and as the element source of non-fundamental D; both sieves walk
the same pairs (a, c), written once in `_pairs`.

Hot paths work on plain (a, b, c) integer tuples; `QuadForm` is a thin
validated wrapper around them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress
from math import gcd, isqrt

from .abgroup import AbelianGroup, AbgroupError, abelian_structure, op_power
from .value import value_type


class QuadFormError(ValueError):
    pass


def _solve_linmod(a, b, m):
    """Solutions of a*x = b (mod m) as x = u + v*Z; raises if none."""
    g = gcd(a, m)
    if b % g:
        raise QuadFormError("no solution to linear congruence")
    v = m // g
    return (b // g) * pow(a // g, -1, v) % v, v


def is_discriminant(value):
    return value < 0 and value % 4 in (0, 1)


def prime_factors(n):
    """Distinct prime factors of n > 0 by trial division (desk scale)."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_fundamental(value):
    if not is_discriminant(value):
        return False
    if value % 4 == 1:
        return _squarefree(-value)
    m = value // 4
    return (-m) % 4 in (1, 2) and _squarefree(-m)


def _squarefree(n):
    for p in prime_factors(n):
        if n % (p * p) == 0:
            return False
    return True


@value_type("value")
class Discriminant:
    def __init__(self, value):
        if not is_discriminant(value):
            raise QuadFormError("discriminant must be negative and 0 or 1 mod 4")
        object.__setattr__(self, "value", value)

    @property
    def is_fundamental(self):
        return is_fundamental(self.value)


@value_type("a", "b", "c")
class QuadForm:
    def __init__(self, a, b, c):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if a <= 0 or self.disc >= 0:
            raise QuadFormError("form must be positive definite")

    @property
    def disc(self):
        return self.b * self.b - 4 * self.a * self.c

    def as_tuple(self):
        return (self.a, self.b, self.c)

    @property
    def is_reduced(self):
        a, b, c = self.a, self.b, self.c
        return abs(b) <= a <= c and (b >= 0 or (abs(b) < a and a < c))


def _reduce_raw(a, b, c):
    while True:
        if b > a or b <= -a:
            # normalize: b into (-a, a]
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        if -a < b <= a <= c:
            if b < 0 and (a == -b or a == c):
                b = -b
            return a, b, c


def _principal_raw(D):
    k = D % 2
    return (1, k, (k * k - D) // 4)


def _compose_raw(f1, f2, D):
    """Gaussian composition (not reduced).  Classical solution by two linear
    congruences, each solved with a modular inverse; all arithmetic in
    unbounded integers since coefficients grow before reduction."""
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    if a1 > a2:
        (a1, b1, c1), (a2, b2, c2) = (a2, b2, c2), (a1, b1, c1)
    g = (b1 + b2) // 2
    h = -(b1 - b2) // 2
    w = gcd(gcd(a1, a2), g)
    j = w
    s = a1 // w
    t = a2 // w
    u = g // w
    if s * t == 0:
        raise QuadFormError("degenerate form")
    mu, nu = _solve_linmod(t * u, h * u + s * c1, s * t)
    if s == 1:
        k = mu
    else:
        lam = _solve_linmod(t * nu, h - t * mu, s)[0]
        k = mu + nu * lam
    l = (k * t - h) // s
    m = (t * u * k - h * u - c1 * s) // (s * t)
    A = s * t
    B = j * u - (k * t + l * s)
    C = k * l - j * m
    return (A, B, C)


def _check_disc(f, D):
    if f.disc != D.value:
        raise QuadFormError("discriminant mismatch: form has %d, expected %d"
                            % (f.disc, D.value))


def reduce_form(f: QuadForm, D: Discriminant) -> QuadForm:
    """The unique reduced form equivalent to f."""
    _check_disc(f, D)
    return QuadForm(*_reduce_raw(f.a, f.b, f.c))


def compose(f: QuadForm, g: QuadForm, D: Discriminant) -> QuadForm:
    """Reduced Gaussian composition; the group law of the form class group."""
    _check_disc(f, D)
    _check_disc(g, D)
    raw = _compose_raw(f.as_tuple(), g.as_tuple(), D.value)
    return QuadForm(*_reduce_raw(*raw))


def principal_form(D: Discriminant) -> QuadForm:
    return QuadForm(*_principal_raw(D.value))


def inverse(f: QuadForm, D: Discriminant) -> QuadForm:
    _check_disc(f, D)
    return QuadForm(*_reduce_raw(f.a, -f.b, f.c))


def _pairs(lo, hi):
    """The pairs (a, c) of reduced forms (a, b, c) with b^2 - 4ac in lo..hi
    (lo <= hi < 0), as (a, c, low, b0, b1, g): low = lo + 4ac, so that
    (a, b, c) has D - lo = b^2 - low; b0..b1, never empty, are the
    0 <= b <= a with low <= b^2 <= hi + 4ac; g = gcd(a, c).  a runs up to
    sqrt(|lo|/3) and c over [max(a, ceil(-hi/4a)), floor((a^2 - lo)/4a)]:
    a window of width W costs about amax^2/8 + (W/4) ln amax pairs,
    instead of O(|D|) per discriminant (Cohen, GTM 138, 5.3-5.4)."""
    for a in range(1, isqrt(-lo // 3) + 1):
        fa = 4 * a
        for c in range(max(a, -(hi // fa)), (a * a - lo) // fa + 1):
            fac = fa * c
            low = lo + fac
            b0 = isqrt(low - 1) + 1 if low > 0 else 0
            b1 = min(a, isqrt(hi + fac))
            if b0 <= b1:
                yield a, c, low, b0, b1, gcd(a, c)


def _reduced_forms_in(discs):
    """Primitive reduced forms of each discriminant in `discs` (ascending,
    all negative), by one sieve over lo = discs[0]..hi = discs[-1]: for each
    of its `_pairs`, (a, b, c), plus (a, -b, c) if 0 < b < a != c, go to the
    bucket of b^2 - 4ac.  c is fixed by (a, b, D), so each sorted bucket is
    in (a, b) order."""
    lo, hi = discs[0], discs[-1]
    buckets = {d: [] for d in discs}
    get = buckets.get
    for a, c, low, b0, b1, g in _pairs(lo, hi):
        fac = low - lo
        for b in range(b0, b1 + 1):
            forms = get(b * b - fac)
            # imprimitive forms are not classes of the order
            if forms is not None and (g == 1 or gcd(g, b) == 1):
                forms.append((a, b, c))
                # (a, -a, c) and (a, -b, a) are not reduced
                if 0 < b < a != c:
                    forms.append((a, -b, c))
    for forms in buckets.values():
        forms.sort()
    return buckets


def _reduced_forms(Dv):
    return _reduced_forms_in([Dv])[Dv]


def _ambiguous(forms):
    """The ambiguous ones among reduced forms: b = 0, a = b or a = c."""
    return [(a, b, c) for a, b, c in forms if b == 0 or a == b or a == c]


def _count_forms(discs):
    """(counts, ambiguous) for `discs` (ascending, all negative), by one
    sieve over lo = discs[0]..hi = discs[-1]: counts[D - lo] is h(D), the
    number of primitive reduced forms, of every D in [lo, hi], and
    ambiguous[D] lists the ambiguous reduced forms (b = 0, a = b or a = c)
    of each D in `discs` in (a, b) order.

    It walks `_pairs` as `_reduced_forms_in` does, but a hit adds 1, or 2
    for the pair (a, +-b), to a list slot instead of building form tuples:
    one slot update per (a, c, b), and W slots of memory for a window of
    width W.  Only the ambiguous forms, about 2^(t-1) per D with t prime
    divisors, are listed, and they go to the few (a, c) whose b range
    reaches b = 0 or b = a, or where a = c."""
    lo, hi = discs[0], discs[-1]
    counts = [0] * (hi - lo + 1)
    ambiguous = {d: [] for d in discs}
    get = ambiguous.get
    squares = [0]  # b^2 for b <= a; a never decreases and b never exceeds a
    for a, c, low, b0, b1, g in _pairs(lo, hi):
        if a >= len(squares):
            squares += [b * b for b in range(len(squares), a + 1)]
        # the slot of b^2 - 4ac is b^2 - low; imprimitive forms are not
        # classes of the order
        if a == c:
            # (a, -b, a) is not reduced, so each b counts once
            for b in range(b0, b1 + 1):
                if g == 1 or gcd(g, b) == 1:
                    counts[squares[b] - low] += 1
                    forms = get(squares[b] - low + lo)
                    if forms is not None:
                        forms.append((a, b, c))
            continue
        if b0 == 0:
            if g == 1:
                counts[-low] += 1
                forms = get(lo - low)
                if forms is not None:
                    forms.append((a, 0, c))
            b0 = 1
        if b1 == a:
            # (a, -a, c) is not reduced
            if g == 1:
                counts[squares[a] - low] += 1
                forms = get(squares[a] - low + lo)
                if forms is not None:
                    forms.append((a, a, c))
            b1 = a - 1
        if g == 1:
            for s in squares[b0:b1 + 1]:
                counts[s - low] += 2
        else:
            for b in range(b0, b1 + 1):
                if gcd(g, b) == 1:
                    counts[squares[b] - low] += 2
    return counts, ambiguous


def enumerate_reduced(D: Discriminant) -> list:
    """All primitive reduced forms of discriminant D; length is h(D)."""
    return [QuadForm(*t) for t in _reduced_forms(D.value)]


def class_number(D: Discriminant) -> int:
    return _count_forms([D.value])[0][0]


def _form_op(Dv):
    """The group law on reduced forms of discriminant Dv."""
    def op(x, y):
        return _reduce_raw(*_compose_raw(x, y, Dv))
    return op


@lru_cache(maxsize=1)
def _form_primes():
    """The primes up to sqrt(MAX_ABS_DISC / 3), the bound of every prime
    form's norm."""
    return [2] + _odd_primes_upto(isqrt(MAX_ABS_DISC // 3))


def _prime_forms(Dv):
    """The prime forms (l, b_l, c) of a fundamental Dv, reduced, lazily:
    l runs upward over the primes l <= sqrt(|Dv|/3) with (Dv/l) != -1, and
    b_l is the b in [0, l] with b^2 = Dv (mod 4l).

    Their classes generate Cl(Dv), with no hypothesis.  Every class holds a
    reduced form (a, b, c) with a <= sqrt(|Dv|/3), and its ideal, of norm a
    and divisible by no rational integer, is a product of prime ideals of
    norms l | a; the class of a prime ideal of norm l is that of
    (l, b_l, c) or its inverse.  For a non-fundamental Dv an ideal of norm
    a need not be invertible, and the argument fails."""
    bound = isqrt(-Dv // 3)
    for l in _form_primes():
        if l > bound:
            return
        if l > 2 and pow(Dv % l, (l - 1) // 2, l) == l - 1:
            continue  # l is inert
        fl = 4 * l
        for b in range(Dv & 1, l + 1, 2):
            if (b * b - Dv) % fl == 0:
                yield _reduce_raw(l, b, (b * b - Dv) // fl)
                break


class _Drawn:
    """The items of an iterator, drawn as iteration first reaches them and
    kept, so that every iteration sees the same items in the same order;
    len() is the number drawn so far."""

    def __init__(self, items):
        self._items = []
        self._source = iter(items)

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        items, i = self._items, 0
        while True:
            if i == len(items):
                x = next(self._source, None)
                if x is None:
                    return
                items.append(x)
            yield items[i]
            i += 1


@value_type("discriminant", "order", "group")
class ClassGroupStructure:
    def __init__(self, discriminant, order, group):
        object.__setattr__(self, "discriminant", discriminant)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "group", group)

    @property
    def invariant_factors(self):
        return self.group.invariant_factors

    @property
    def is_fundamental(self):
        return self.discriminant.is_fundamental

    @cached_property
    def forms(self):
        """The primitive reduced forms, in sieve order, enumerated on first
        read."""
        return _reduced_forms(self.discriminant.value)

    @cached_property
    def generators(self):
        """QuadForm per invariant factor, chosen greedily over the forms in
        sieve order on first read; about h to 2h compositions."""
        Dv = self.discriminant.value
        res = abelian_structure(self.forms, _form_op(Dv), _principal_raw(Dv))
        if res.group != self.group:
            raise QuadFormError("greedy structure %s differs from the Sylow "
                                "structure %s of D = %d"
                                % (res.group.invariant_factors,
                                   self.invariant_factors, Dv))
        return tuple(QuadForm(*g) for g in res.generators)


def _four_rank(Dv, forms):
    """The 4-rank of the class group of a fundamental Dv, from its reduced
    forms `forms` (the ambiguous ones suffice), or None if Dv is not
    fundamental.

    It counts the ambiguous forms (a, b, c) on which every assigned
    character is +1; the count is 2^r4.  Each odd p | Dv gives (m/p), with
    m the one of a and c that is prime to p (they are not both divisible,
    as p | b^2 - 4ac and the form is primitive).  The product of all the
    assigned characters is trivial on the class group (Cox, 3.15), so the
    2-adic one that 4 | Dv adds (chi_-4, chi_-8 or chi_8) is +1 wherever
    the odd ones are, and is not evaluated."""
    n = -Dv
    if n % 4 == 0:
        n //= 4
        if n % 4 not in (1, 2):
            return None
    primes = prime_factors(n)
    if any(n % (p * p) == 0 for p in primes):
        return None
    odd = [p for p in primes if p != 2]
    count = sum(1 for a, b, c in _ambiguous(forms)
                if all(pow(a if a % p else c, (p - 1) // 2, p) == 1
                       for p in odd))
    return count.bit_length() - 1


def _two_part(r, v, r4):
    """The 2-part of order 2^v, rank r and 4-rank r4 (ascending), where
    these force it, else None."""
    if r4 is None:
        return None
    rest = v - (r - r4)
    if r4 == 1:
        return (2,) * (r - 1) + (1 << rest,)
    if rest == 2 * r4:
        return (2,) * (r - r4) + (4,) * r4
    if rest == 2 * r4 + 1:
        return (2,) * (r - r4) + (4,) * (r4 - 1) + (8,)
    return None


def _part_from_forms(forms, op, one, cofactor, q, qv, Dv):
    """The q-part of order qv, from the cofactor-th powers of `forms`,
    which generate the class group.  An odd part is C_qv if the first power
    y that is not 1 has y^(qv / q) != 1, that is, order qv.  Otherwise the
    powers that are not 1, from y on, are spanned until they hold qv
    classes, so a failed cyclic test costs no composition twice."""
    powers = _Drawn(y for y in (op_power(f, cofactor, op, one) for f in forms)
                    if y != one)
    if q != 2:
        y = next(iter(powers), None)
        if y is not None and op_power(y, qv // q, op, one) != one:
            return (qv,)
    try:
        return abelian_structure(powers, op, one, order=qv
                                 ).group.invariant_factors
    except AbgroupError as exc:
        raise QuadFormError("the forms of D = %d do not span its %d-part "
                            "of order %d: %s" % (Dv, q, qv, exc)) from None


MAX_ABS_DISC = 10 ** 8


def class_group_structure(D: Discriminant,
                          counted=None) -> ClassGroupStructure:
    """Invariant factors of the form class group, one Sylow subgroup at a
    time (Teske, Math. Comp. 67, 1998; Cohen, GTM 138, 5.4).

    h is the number of primitive reduced forms, counted by `_count_forms`.
    A q-part of order q^v and rank r in {1, v - 1, v} is forced, at no
    composition: C_q^(r-1) x C_{q^(v-r+1)}.  r is known for q = 2, as each
    class of order <= 2 holds one ambiguous reduced form (b = 0, a = b or
    a = c; Buell, Binary Quadratic Forms, ch. 4), and for v = 1.

    Two more rules decide most of the other parts without a span:

    - A 2-part of fundamental D, by its 4-rank r4.  The ambiguous classes
      are Cl[2] and the principal genus is Cl^2 (Gauss), so 2^r4 ambiguous
      forms lie in the principal genus, where every assigned character is
      +1 (Cox, Primes of the Form x^2 + ny^2, 3.15; Redei-Reichardt 1934):
      see `_four_rank`.  With rest = v - (r - r4), the part is
      C_2^(r-1) x C_{2^rest} if r4 = 1, C_2^(r-r4) x C_4^r4 if rest = 2 r4,
      and C_2^(r-r4) x C_4^(r4-1) x C_8 if rest = 2 r4 + 1.
    - An odd q-part of order q^v >= q^2: if the first generating form whose
      (h / q^v)-th power y is not 1 has y^(q^(v-1)) != 1, then y has order
      q^v and the part is C_{q^v}.

    Any other q-part is spanned by the (h / q^v)-th powers of generating
    forms, at about 1.5 log2(h / q^v) compositions per form and q^v to
    2 q^v for the span, until the span holds q^v classes; its relation
    lattice is resolved by Smith normal form.  The generating forms are
    the prime forms of norm <= sqrt(|D|/3) for fundamental D (see
    `_prime_forms`), computed only as far as a part reads them, and every
    reduced form otherwise.  The q-parts combine by the Chinese remainder
    theorem: the i-th invariant factor from the top is the product of the
    i-th q-factors from the top.

    `forms` and `generators` are computed only when read; the generators
    are chosen greedily over all h forms in sieve order.  Non-fundamental
    discriminants are computed on (class group of the non-maximal order)
    but flagged via `is_fundamental`.  `counted`, if given, is (h, the
    ambiguous reduced forms, None) for fundamental D, from a counting sieve
    that has already run, or (h, the ambiguous forms, all reduced forms)
    for other D.  Without it, D alone is counted, or its forms enumerated,
    at the same cost: one walk of the pairs (a, c).
    """
    if -D.value > MAX_ABS_DISC:
        raise QuadFormError("|D| beyond configured bound %d" % MAX_ABS_DISC)
    Dv = D.value
    if counted is None:
        if D.is_fundamental:
            counts, ambiguous = _count_forms([Dv])
            counted = counts[0], ambiguous[Dv], None
        else:
            forms = _reduced_forms(Dv)
            counted = len(forms), _ambiguous(forms), forms
    h, ambiguous, forms = counted
    n2 = len(ambiguous)
    two_rank = max(n2.bit_length() - 1, 0)
    if n2 != 1 << two_rank or h % n2 or (n2 > 1) != (h % 2 == 0):
        raise QuadFormError("%d ambiguous forms cannot be the 2-torsion of "
                            "%d classes (D = %d)" % (n2, h, Dv))
    op, one = _form_op(Dv), _principal_raw(Dv)
    forms = _Drawn(_prime_forms(Dv) if forms is None else forms)
    top = []  # invariant factors, largest first
    for q in prime_factors(h):
        v, qv = 1, q
        while h % (qv * q) == 0:
            v, qv = v + 1, qv * q
        r = two_rank if q == 2 else 1 if v == 1 else None
        if r in (1, v - 1, v):
            part = (q,) * (r - 1) + (qv // q ** (r - 1),)
        elif q == 2:
            part = _two_part(r, v, _four_rank(Dv, ambiguous))
        else:
            part = None
        if part is None:
            part = _part_from_forms(forms, op, one, h // qv, q, qv, Dv)
        for i, d in enumerate(reversed(part)):
            if i == len(top):
                top.append(1)
            top[i] *= d
    return ClassGroupStructure(discriminant=D, order=h,
                               group=AbelianGroup(top[::-1]))


def class_group_structures(discs):
    """class_group_structure of each discriminant in `discs` (ascending and
    close together), sharing one counting sieve over their range."""
    counts, ambiguous = _count_forms(discs)
    lo = discs[0]
    fundamental = set(fundamental_discriminants(lo, discs[-1]))
    others = [d for d in discs if d not in fundamental]
    forms = _reduced_forms_in(others) if others else {}
    return [class_group_structure(Discriminant(d), (
        counts[d - lo], ambiguous[d], forms.get(d))) for d in discs]


def p_rank(D: Discriminant, p: int) -> int:
    """Rank of the p-Sylow subgroup of the form class group."""
    return class_group_structure(D).group.rank(p)


def genus_two_rank(D: Discriminant) -> int:
    """2-rank of Cl(K) by genus theory: one less than the number of ramified
    primes, i.e. of distinct prime divisors of the fundamental discriminant."""
    if not D.is_fundamental:
        raise QuadFormError("genus rank formula needs a fundamental discriminant")
    return len(prime_factors(D.value)) - 1


# D mod 16 of the fundamental discriminants that no odd square divides:
# D = 1 mod 4, or D = 4m with -m = 1, 2 mod 4 (D = 12, 8 mod 16)
_FUNDAMENTAL_MOD16 = bytes(int(r in (1, 5, 8, 9, 12, 13)) for r in range(16))
_SIEVE_SEGMENT = 1 << 16


def _odd_primes_upto(n):
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(3, n + 1) if flags[p]]


def fundamental_discriminants(lo, hi):
    """Fundamental discriminants D with lo <= D <= hi (both negative), in
    ascending order.

    A segmented sieve: each segment starts from the admissible residues mod
    16 and clears the multiples of p^2 for every odd prime p <= sqrt(|lo|);
    `is_fundamental` is the per-value definition.
    """
    if lo < -MAX_ABS_DISC:
        raise QuadFormError("lower bound %d is below -%d" % (lo, MAX_ABS_DISC))
    hi = min(hi, -3)
    if lo > hi:
        return []
    squares = [p * p for p in _odd_primes_upto(isqrt(-lo))]
    out = []
    for start in range(lo, hi + 1, _SIEVE_SEGMENT):
        width = min(_SIEVE_SEGMENT, hi - start + 1)
        r = start % 16
        flags = bytearray((_FUNDAMENTAL_MOD16[r:] + _FUNDAMENTAL_MOD16[:r])
                          * (width // 16 + 1))[:width]
        for q in squares:
            first = -start % q
            if first < width:
                flags[first::q] = bytes(len(range(first, width, q)))
        out.extend(compress(range(start, start + width), flags))
    return out
