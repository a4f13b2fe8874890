#!/usr/bin/env python3
"""Print isomorphism-grade fingerprints for every catalog group.

Columns: name, p, order, element order statistics, abelianization, |G'|,
center structure, number of conjugacy classes.  Useful when adding new
presentations: two entries of the same order with identical rows need a
sharper argument before both can stay."""

from collections import Counter

from capkit.abgroup import abelian_structure
from capkit.catalog import load_catalog


def fingerprint(G):
    orders = Counter(G.element_order(x) for x in G.elements())
    ab = G.abelianization()[0].invariant_factors
    der = G.order // G.derived_subgroup().index
    center = [z for z in G.elements()
              if all(G.mult(z, x) == G.mult(x, z) for x in G.elements())]
    zstruct = abelian_structure(center, G.mult, G.identity).group.invariant_factors
    classes = len({frozenset(G.conjugate(x, t) for t in G.elements())
                   for x in G.elements()})
    return orders, ab, der, zstruct, classes


def main():
    cat = load_catalog()
    print(f"{'name':14} {'p':>2} {'order':>5}  orders{'':18} ab{'':12} |G'| Z  classes")
    dupes = {}
    for name, G in cat.items():
        orders, ab, der, zstruct, classes = fingerprint(G)
        ostr = " ".join("%d^%d" % (o, n) for o, n in sorted(orders.items()))
        key = (G.p, G.order, tuple(sorted(orders.items())), ab, der, zstruct, classes)
        dupes.setdefault(key, []).append(name)
        print(f"{name:14} {G.p:>2} {G.order:>5}  {ostr:24} {str(ab):14} "
              f"{der:>3} {str(zstruct):9} {classes:>3}")
    clashes = [names for names in dupes.values() if len(names) > 1]
    if clashes:
        print("\nfingerprint clashes (need a sharper invariant):")
        for names in clashes:
            print(" ", ", ".join(names))
    else:
        print("\nall fingerprints distinct")


if __name__ == "__main__":
    main()
