"""Group-algebra machinery over Z/p^m: primitive idempotents of (Z/p^m)[G]
for finite abelian G, split and Hensel-lifted in Berlekamp's orbit-sum
algebra; component and cyclic-module decompositions, the relative-extension
datum coming from a group/subgroup pair, the norm-kernel comparison
predicate and the growth classifier for norm kernels.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from enum import Enum
from functools import cached_property

from .abgroup import (AbelianGroup, Homomorphism, Subgroup, check_prime,
                      hom_power, identity_hom, op_power, power_hom, transpose,
                      zero_hom)
from .pcgroup import (PcGroup, SubgroupDescriptor,
                      subgroups_index_p_above_derived, transfer)
from .value import value_type


class GModuleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# group algebra elements and idempotents
# ---------------------------------------------------------------------------

@value_type("group", "prime", "precision", "coeffs")
class GroupAlgebraElement:
    """Element of (Z/p^m)[G] for a finite abelian G with p coprime to |G|,
    as a coefficient record: the coefficients per group element tuple,
    reduced mod p^m.  capkit only reads them; the ring's sum, product and
    one are the tests' (tests/algebra_oracles.py)."""

    def __init__(self, group, prime, precision, coeffs):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "precision", precision)
        # ((element, coefficient), ...) sorted, zero entries dropped
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def make(cls, group, prime, precision, mapping):
        """The element sum c g over the (g, c) of `mapping`: each g is
        reduced first, so the coefficients of equal elements add up."""
        mod = prime ** precision
        sums = Counter()
        for g, c in mapping.items():
            sums[group.reduce(g)] += c
        items = tuple(sorted((g, c % mod) for g, c in sums.items() if c % mod))
        return cls(group, prime, precision, items)

    @property
    def modulus(self):
        return self.prime ** self.precision


def primitive_idempotents(G: AbelianGroup, p: int, m: int):
    """Pairwise orthogonal primitive idempotents of (Z/p^m)[G] summing to 1,
    sorted by coefficients, for a prime p not dividing |G| and an int m >= 1.

    F_p[G] is a product of fields, one per orbit of g -> p g on G, and the
    orbit sums span Berlekamp's subalgebra B = {b : b^p = b}, a copy of
    F_p^r (Berlekamp, Math. Comp. 24, 1970).  In B, 1 - (b - t)^(p-1) is
    the idempotent of the fields where b takes the value t in F_p, so the
    orbit sums b, one at a time, split 1 until r idempotents remain.  The
    orbit sums have integer structure constants, so the same table mod p^m
    multiplies in their span over Z/p^m, and e <- 3e^2 - 2e^3 lifts each
    idempotent there; only the results are expanded over G."""
    check_prime(p, GModuleError)
    if not isinstance(m, int) or m < 1:
        raise GModuleError("precision must be an int >= 1")
    if G.order() % p == 0:
        raise GModuleError("prime divides the group order")
    orbit_of, orbits = {}, []  # the orbit of 0 comes first
    for g in G.elements():
        if g not in orbit_of:
            orbits.append([])
            while g not in orbit_of:
                orbit_of[g] = len(orbits) - 1
                orbits[-1].append(g)
                g = G.scale(p, g)
    r = len(orbits)
    # b_i b_j = sum_k table[i, j][k] b_k: the coefficient of b_k counts the
    # g in orbit i with (first element of orbit k) - g in orbit j
    table = {}
    for k, orbit in enumerate(orbits):
        for g in G.elements():
            ij = orbit_of[g], orbit_of[G.add(orbit[0], G.scale(-1, g))]
            table.setdefault(ij, Counter())[k] += 1

    def mul(x, y, mod=p):  # product in B, on the orbit-sum basis
        out = [0] * r
        for (i, j), row in table.items():
            if x[i] and y[j]:
                for k, c in row.items():
                    out[k] += x[i] * y[j] * c
        return tuple(c % mod for c in out)

    one = (1,) + (0,) * (r - 1)
    idems = [one]
    for b in range(1, r):
        if len(idems) == r:
            break
        cuts = []  # 1 - (b - t)^(p-1), t in F_p, those that are not 0
        for t in range(p):
            b_t = [-t] + [0] * (r - 1)
            b_t[b] = 1
            power = op_power(tuple(b_t), p - 1, mul, one)
            cut = tuple((a - c) % p for a, c in zip(one, power))
            if any(cut):
                cuts.append(cut)
        idems = [f for e in idems for u in cuts if any(f := mul(e, u))]
    mod = p ** m
    for _ in range((m - 1).bit_length()):  # each step doubles the precision
        squares = [mul(e, e, mod) for e in idems]
        idems = [tuple((3 * a - 2 * b) % mod
                       for a, b in zip(e2, mul(e2, e, mod)))
                 for e, e2 in zip(idems, squares)]
    return sorted((GroupAlgebraElement.make(
        G, p, m, {g: e[i] for g, i in orbit_of.items()}) for e in idems),
        key=lambda e: e.coeffs)


# ---------------------------------------------------------------------------
# modules with abelian group action
# ---------------------------------------------------------------------------

@value_type("module", "acting_group", "action")
class GModule:
    """Finite abelian p-group with an action of a finite abelian group given
    by one commuting invertible endomorphism per generator."""

    def __init__(self, module, acting_group, action):
        action = tuple(action)  # one Homomorphism per acting-group generator
        if len(action) != acting_group.ngens:
            raise GModuleError("need one action map per acting-group generator")
        for h in action:
            if h.source != module or h.target != module:
                raise GModuleError("action maps must be endomorphisms of the module")
        for a, b in itertools.combinations(action, 2):
            if a.compose(b) != b.compose(a):
                raise GModuleError("action maps must commute")
        ident = identity_hom(module)
        for h, d in zip(action, acting_group.invariant_factors):
            if hom_power(h, d) != ident:
                raise GModuleError("action does not respect acting-group orders")
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "acting_group", acting_group)
        object.__setattr__(self, "action", action)

    def act_element(self, g):
        """Endomorphism attached to acting-group element g."""
        out = identity_hom(self.module)
        for c, h in zip(g, self.action):
            out = hom_power(h, c).compose(out)
        return out

    def algebra_endomorphism(self, a: GroupAlgebraElement):
        if a.group != self.acting_group:
            raise GModuleError("algebra element acts through the wrong group")
        exp = self.module.exponent()
        if exp > 1 and a.modulus % exp:
            raise GModuleError("precision too low for module exponent %d" % exp)
        out = zero_hom(self.module, self.module)
        for g, c in a.coeffs:
            out = out + power_hom(self.module, c).compose(self.act_element(g))
        return out

    def orbit_span(self, b):
        """Smallest action-stable subgroup containing b: the span of b's
        orbit under the acting group."""
        orbit = frontier = {tuple(b)}
        while frontier:
            frontier = {h(x) for x in frontier for h in self.action} - orbit
            orbit = orbit | frontier
        return Subgroup.from_generators(self.module, orbit)

    def stable(self, sub: Subgroup):
        return all(sub.contains(h(g)) for h in self.action for g in sub.generators())


def trivial_action_module(A: AbelianGroup, G: AbelianGroup):
    return GModule(A, G, tuple(identity_hom(A) for _ in range(G.ngens)))


def decompose_module(M: GModule, idempotents):
    """Internal direct product decomposition A = prod e_alpha(A), one
    component per idempotent; for those of `primitive_idempotents`, one per
    orbit of g -> p g on the acting group (some may be trivial)."""
    comps = [M.algebra_endomorphism(e).image() for e in idempotents]
    total = 1
    for c in comps:
        total *= c.order()
    if total != M.module.order():
        raise GModuleError("component orders do not multiply to |A|")
    for c in comps:
        if not M.stable(c):
            raise GModuleError("component is not action-stable")
    return comps


def cycle_decomposition(M: GModule):
    """Generators b_i whose orbit modules form an internal direct product
    equal to the whole module.  Greedy on element order with backtracking."""
    A = M.module
    elements = sorted(A.elements(), key=lambda x: (-A.element_order(x), x))
    full = Subgroup.full(A)
    trivial = Subgroup.trivial(A)

    dead_ends = set()
    orbit_span = functools.cache(M.orbit_span)  # one span per element

    def search(current, gens):
        if current == full:
            return gens
        if current.basis in dead_ends:
            return None
        for b in elements:
            if current.contains(b):
                continue
            span = orbit_span(b)
            if span.intersection(current) != trivial:
                continue
            res = search(current.join(span), gens + [b])
            if res is not None:
                return res
        dead_ends.add(current.basis)
        return None

    if A.order() == 1:
        return []
    res = search(trivial, [])
    if res is None:
        raise GModuleError("no cyclic direct decomposition found")
    return res


def is_exact_cycle(M: GModule, b):
    """For a cyclic action of order p with generator sigma and s = sigma - 1:
    whether B = span(b) satisfies B meet A^s = B^s."""
    if M.acting_group.ngens != 1:
        raise GModuleError("exactness needs a cyclic acting group")
    sigma = M.action[0]
    s = sigma - identity_hom(M.module)
    B = M.orbit_span(b)
    Bs = B.image_under(s)
    As = s.image()
    return B.intersection(As) == Bs


# ---------------------------------------------------------------------------
# the Artin relative-extension datum
# ---------------------------------------------------------------------------

class GrowthClass(Enum):
    STABLE = "stable"
    SEMI_STABLE = "semi-stable"
    WILD = "wild"


@value_type("p", "A_K", "A_L", "lift", "norm", "sigma")
class RelativeExtensionDatum:
    """Group-side package of a degree-p extension: class groups upstairs and
    downstairs, lift and norm between them and the Galois action upstairs.

    The constructor raises unless p is a prime, the maps have the right
    signatures and sigma^p = 1.  It leaves the Artin identities, theorems
    for data derived from a group, to `check_invariants`, which reports
    the violated ones; `make_relative_datum` raises on them:
      norm o lift = p-th power map on A_K
      lift o norm = action of 1 + sigma + ... + sigma^(p-1) on A_L
      norm o sigma = norm, sigma o lift = lift
    """

    def __init__(self, p, A_K, A_L, lift, norm, sigma):
        # lift: A_K -> A_L, norm: A_L -> A_K, sigma: automorphism of A_L of
        # order dividing p
        check_prime(p, GModuleError)
        if lift.source != A_K or lift.target != A_L:
            raise GModuleError("lift has wrong signature")
        if norm.source != A_L or norm.target != A_K:
            raise GModuleError("norm has wrong signature")
        if sigma.source != A_L or sigma.target != A_L:
            raise GModuleError("sigma must be an endomorphism of A_L")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "A_K", A_K)
        object.__setattr__(self, "A_L", A_L)
        object.__setattr__(self, "lift", lift)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "sigma", sigma)
        if self._sigma_powers[p] != self._sigma_powers[0]:
            raise GModuleError("sigma order does not divide p")

    @cached_property
    def _sigma_powers(self):
        """(sigma^0, ..., sigma^p), p - 1 compositions."""
        powers = [identity_hom(self.A_L), self.sigma]
        for _ in range(self.p - 1):
            powers.append(self.sigma.compose(powers[-1]))
        return tuple(powers)

    def norm_element_action(self):
        """1 + sigma + ... + sigma^(p-1)."""
        return sum(self._sigma_powers[1:-1], self._sigma_powers[0])

    def s_map(self):
        return self.sigma - identity_hom(self.A_L)

    def check_invariants(self):
        """The violated invariants, as a fresh list of messages."""
        return list(self._violations)

    @cached_property
    def _violations(self):  # the fields never change: check once per datum
        out = []
        if self.norm.compose(self.lift) != power_hom(self.A_K, self.p):
            out.append("norm o lift is not the p-th power map")
        if self.lift.compose(self.norm) != self.norm_element_action():
            out.append("lift o norm is not the norm-element action")
        if self.norm.compose(self.sigma) != self.norm:
            out.append("norm is not sigma-invariant")
        if self.sigma.compose(self.lift) != self.lift:
            out.append("lift does not land in the fixed part")
        return tuple(out)


def make_relative_datum(G: PcGroup, H: SubgroupDescriptor) -> RelativeExtensionDatum:
    """Artin dictionary for an index-p subgroup H >= G': A_K = G/G',
    A_L = H/H', lift = transfer, norm = inclusion-induced map, sigma =
    conjugation by a transversal generator.  H/H' and the transversal are
    H's own, shared with every other transfer to H.  Raises GModuleError
    when the datum breaks an Artin identity.

    No test of G' <= H or of normality: a subgroup of index p in a p-group
    is maximal, hence normal, and G/H of order p is abelian."""
    p = G.p
    if H.index != p:
        raise GModuleError("subgroup must have index p")

    A_K, proj_G, _ = G.abelianization()
    lift = transfer(G, H)
    A_L, proj_H, gens_H = H.abelianization

    # H t holds the least element outside H; sigma depends only on H t
    t = H.transversal[1]
    # one projection per generator of H/H' gives a column of each matrix;
    # a trivial H/H' leaves the norm A_K.ngens empty rows
    norm = Homomorphism(A_L, A_K, transpose([proj_G(g) for g in gens_H])
                        or [()] * A_K.ngens)
    sigma = Homomorphism(A_L, A_L, transpose(
        [proj_H(G.conjugate(g, t)) for g in gens_H]))
    d = RelativeExtensionDatum(p, A_K, A_L, lift, norm, sigma)
    bad = d.check_invariants()
    if bad:
        raise GModuleError("datum invariants violated: " + "; ".join(bad))
    return d


def f_property(d: RelativeExtensionDatum) -> bool:
    """Whether ker(norm) = A_L^s; containment ker(norm) >= A_L^s always holds
    and is asserted unconditionally."""
    ker = d.norm.kernel()
    As = d.s_map().image()
    if not ker.contains_subgroup(As):
        raise GModuleError("ker(norm) does not contain A_L^s")
    return ker == As


def classify_growth(d: RelativeExtensionDatum) -> GrowthClass:
    """Stable when rk(N(A_L)) = rk(A_L), read off ker N, and rk(A_K) =
    rk(A_K^p); semi-stable when s^(p-1) annihilates A_L; wild otherwise (the
    tame case of the taxonomy has no computable definition)."""
    p = d.p
    # pZ/f = Z/(f/gcd(f, p)), so rk(A_K) = rk(A_K^p) iff no f of A_K has p || f
    # rk(A/K) = rk(A) - dim((K + pA)/pA): rk(N(A_L)) = rk(A_L) iff ker N <= pA_L
    wide = [i for i, f in enumerate(d.A_L.invariant_factors) if f % p == 0]
    if all(f % p or f % (p * p) == 0 for f in d.A_K.invariant_factors) and \
            all(r[i] % p == 0 for r in d.norm.kernel().basis for i in wide):
        return GrowthClass.STABLE
    if hom_power(d.s_map(), p - 1).is_zero():
        return GrowthClass.SEMI_STABLE
    return GrowthClass.WILD


def check_growth_order_law(d: RelativeExtensionDatum, b):
    """Whether ord(b) = p * ord(lift(norm(b))), for b whose norm extends to a
    minimal generating system of N(A_L).  Returns True/False, or None when
    the hypothesis is not met (inapplicable)."""
    if classify_growth(d) not in (GrowthClass.STABLE, GrowthClass.SEMI_STABLE):
        return None
    S, to_coords, _ = d.norm.image().structure_with_coords()
    if S.order() == 1:
        return None
    a = d.norm(b)
    coords = to_coords(a)
    if all(c % d.p == 0 for c in coords):
        return None  # norm image lies in the Frattini subgroup of N(A_L)
    ord_b = d.A_L.element_order(b)
    ord_lift = d.A_L.element_order(d.lift(a))
    return ord_b == d.p * ord_lift


def catalog_relative_data(G: PcGroup):
    """All relative data from index-p subgroups of G above the derived
    subgroup (G' <= H holds there by construction).  The subgroups,
    transversals and H/H' are G's shared index-p lattice, the same objects
    that capitulation_type reads."""
    return [make_relative_datum(G, H)
            for H in subgroups_index_p_above_derived(G)]
