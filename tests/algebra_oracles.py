"""The ring (Z/p^m)[G], written over GroupAlgebraElement's coefficient
records: its one, sum and product.

capkit computes primitive idempotents on Berlekamp's orbit-sum basis and
only reads their coefficients over G.  The product here multiplies over G
term by term, |supp x| * |supp y| additions in G, so it is independent of
that basis and checks e^2 = e, orthogonality and the sum 1.
"""

from collections import Counter

from capkit.gmodule import GroupAlgebraElement


def _algebra(*elements):
    """The (group, prime, precision) that all of elements share."""
    algebras = {(x.group, x.prime, x.precision) for x in elements}
    if len(algebras) != 1:
        raise ValueError("elements of different group algebras")
    return algebras.pop()


def algebra_one(group, p, m):
    """The unit of (Z/p^m)[group]: 1 times the zero element."""
    return GroupAlgebraElement.make(group, p, m, {group.zero(): 1})


def algebra_sum(first, *rest):
    """The sum of the given elements of one group algebra."""
    sums = Counter()
    for x in (first,) + rest:
        sums.update(dict(x.coeffs))
    return GroupAlgebraElement.make(*_algebra(first, *rest), sums)


def algebra_product(x, y):
    """x y, the sum of c d (g + h) over the terms c g of x and d h of y."""
    algebra = _algebra(x, y)
    out = Counter()
    for g, c in x.coeffs:
        for h, d in y.coeffs:
            out[algebra[0].add(g, h)] += c * d
    return GroupAlgebraElement.make(*algebra, out)
