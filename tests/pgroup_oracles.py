"""Element-set oracles for the subgroups of small PcGroups.

A subgroup is written out as the set of its elements, found without its
pcgs: closures by breadth-first search from the identity, greedy generating
sets by closures, and coset minima by multiplying out the subgroup.  Each
costs |G| products or more, so they serve as oracles on groups of order
<= 3^5.
"""


def members(H):
    """The elements of the SubgroupDescriptor H, ascending: the x whose
    coset H x has label 1."""
    G = H.ambient
    return [x for x in G.elements() if H.label(x) == G.identity]


def closure(G, gens):
    """The subgroup generated by gens, as a frozenset, by breadth-first
    search over right multiplication by the generators."""
    gens = list(gens)
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        reached = {G.mult(x, g) for x in frontier for g in gens} - seen
        seen |= reached
        frontier = list(reached)
    return frozenset(seen)


def greedy_generators(G, elements):
    """The ascending greedy generating set of the subgroup elements: each
    element not yet in the closure of those chosen before it."""
    gens, current = [], {G.identity}
    for x in sorted(elements):
        if x not in current:
            gens.append(x)
            current = closure(G, gens)
    return tuple(gens)


def coset_minima(G, elements):
    """{x: min(h x for h in H)} over G for the subgroup H given by its
    elements, one coset multiplied out at a time."""
    hs = list(elements)
    label = {}
    for x in G.elements():
        if x not in label:
            coset = [G.mult(h, x) for h in hs]
            label.update(dict.fromkeys(coset, min(coset)))
    return label


def derived_closure(G, gens):
    """H' for H = <gens>, as a frozenset: the closure of [a, y] for a in H
    and y in gens.  That subgroup M lies in H' and is normal in H, since
    [a, y]^b = [ab, y] [b, y]^-1; each y is central mod M, so H/M is
    abelian and M = H'."""
    gens = list(gens)
    return closure(G, [G.commutator(a, y)
                       for a in closure(G, gens) for y in gens])
