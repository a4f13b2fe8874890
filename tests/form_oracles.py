"""Gaussian composition by the classical solution of two linear
congruences: the path that Cohen's Algorithm 5.4.7 in `capkit.quadform`
replaced, kept as its oracle.  It shares no composition code with the
package; only the error class comes from there."""

from math import gcd

from capkit.quadform import QuadFormError


def _solve_linmod(a, b, m):
    """Solutions of a*x = b (mod m) as x = u + v*Z; raises if none."""
    g = gcd(a, m)
    if b % g:
        raise QuadFormError("no solution to linear congruence")
    v = m // g
    return (b // g) * pow(a // g, -1, v) % v, v


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
