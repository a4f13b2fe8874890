"""Class groups of imaginary quadratic orders via positive definite binary
quadratic forms: Gauss reduction, composition, exhaustive enumeration of
reduced forms, and invariant factors of the form class group.

Hot paths work on plain (a, b, c) integer tuples; `QuadForm` is a thin
validated wrapper around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .abgroup import AbelianGroup, abelian_structure


class QuadFormError(ValueError):
    pass


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _solve_linmod(a, b, m):
    """Solutions of a*x = b (mod m) as x = u + v*Z; raises if none."""
    g, d, _ = _xgcd(a, m)
    if b % g:
        raise QuadFormError("no solution to linear congruence")
    return (b // g) * d % m, m // g


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


@dataclass(frozen=True)
class Discriminant:
    value: int

    def __post_init__(self):
        if not is_discriminant(self.value):
            raise QuadFormError("discriminant must be negative and 0 or 1 mod 4")

    @property
    def is_fundamental(self):
        return is_fundamental(self.value)


@dataclass(frozen=True)
class QuadForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.disc >= 0:
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

    @property
    def is_primitive(self):
        return gcd(gcd(self.a, self.b), self.c) == 1


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
    """Gaussian composition (not reduced).  Classical extended-gcd solution;
    all arithmetic in unbounded integers since coefficients grow before
    reduction."""
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


def _enumerate_reduced_raw(D):
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


def enumerate_reduced(D: Discriminant) -> list:
    """All primitive reduced forms of discriminant D; length is h(D)."""
    return [QuadForm(*t) for t in _enumerate_reduced_raw(D.value)]


def class_number(D: Discriminant) -> int:
    return len(_enumerate_reduced_raw(D.value))


@dataclass(frozen=True)
class ClassGroupStructure:
    discriminant: Discriminant
    order: int
    group: AbelianGroup
    generators: tuple  # QuadForm per invariant factor
    is_fundamental: bool

    @property
    def invariant_factors(self):
        return self.group.invariant_factors


_MAX_ABS_DISC = 10 ** 8


def class_group_structure(D: Discriminant) -> ClassGroupStructure:
    """Invariant factors of the form class group, deterministically.

    Generators are chosen greedily from the enumerated reduced forms, the
    relation lattice is resolved by Smith normal form.  Non-fundamental
    discriminants are computed on (class group of the non-maximal order)
    but flagged via `is_fundamental`.
    """
    if -D.value > _MAX_ABS_DISC:
        raise QuadFormError("|D| beyond configured bound %d" % _MAX_ABS_DISC)
    Dv = D.value
    forms = _enumerate_reduced_raw(Dv)
    ident = _principal_raw(Dv)

    def op(x, y):
        return _reduce_raw(*_compose_raw(x, y, Dv))

    res = abelian_structure(forms, op, ident)
    return ClassGroupStructure(
        discriminant=D,
        order=len(forms),
        group=res.group,
        generators=tuple(QuadForm(*g) for g in res.generators),
        is_fundamental=D.is_fundamental,
    )


def p_rank(D: Discriminant, p: int) -> int:
    """Rank of the p-Sylow subgroup of the form class group."""
    return class_group_structure(D).group.rank(p)


def genus_two_rank(D: Discriminant) -> int:
    """2-rank of Cl(K) by genus theory: one less than the number of ramified
    primes, i.e. of distinct prime divisors of the fundamental discriminant."""
    if not D.is_fundamental:
        raise QuadFormError("genus rank formula needs a fundamental discriminant")
    return len(prime_factors(D.value)) - 1


def fundamental_discriminants(lo, hi):
    """Fundamental discriminants D with lo <= D <= hi (both negative)."""
    out = []
    for v in range(max(lo, -_MAX_ABS_DISC), min(hi, -2) + 1):
        if is_fundamental(v):
            out.append(v)
    return out
