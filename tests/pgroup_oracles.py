"""Oracles for the subgroups of PcGroups.

Element-set oracles write a subgroup out as the set of its elements, found
without its pcgs: closures by breadth-first search from the identity,
greedy generating sets by closures, and coset minima by multiplying out the
subgroup.  Each costs |G| products or more, so they serve as oracles on
groups of order <= 3^5.  closure_lattice builds the index-p subgroups above
G' by PcGroup.subgroup closures from generators, against the lattice that
subgroups_index_p_above_derived reads off exponent functionals.
"""

from functools import reduce

from capkit.abgroup import AbelianGroup, Homomorphism
from capkit.pcgroup import normalized_lines


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


def closure_lattice(G):
    """The index-p subgroups of G above G', in the order of
    subgroups_index_p_above_derived: for each functional phi on G/G' (the
    line through v is the kernel of (v2, -v1) when G/G' has rank 2, else
    phi is v), G.subgroup of the pcgs of G' and the lifts to G of the
    generators of the kernel of phi."""
    p = G.p
    A, _, lifts = G.abelianization()
    r = A.rank(p)
    derived = list(G.derived_subgroup().pcgs)
    out = []
    for v in normalized_lines(p, r):
        phi = (v[1], -v[0]) if r == 2 else v
        kernel = Homomorphism(A, AbelianGroup((p,)), [phi]).kernel()
        out.append(G.subgroup(derived + [
            reduce(G.mult, map(G.power, lifts, c), G.identity)
            for c in kernel.generators()]))
    return out
