"""Group-algebra machinery over Z/p^m: primitive idempotents, component and
cyclic-module decompositions, the relative-extension datum coming from a
group/subgroup pair, the norm-kernel comparison predicate and the growth
classifier for norm kernels.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from functools import cached_property

from .abgroup import (AbelianGroup, Homomorphism, Subgroup, hom_power,
                      identity_hom, is_prime, power_hom, transpose, zero_hom)
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
    """Element of (Z/p^m)[G] for a finite abelian G with p coprime to |G|.
    Coefficients are stored per group element tuple, reduced mod p^m."""

    def __init__(self, group, prime, precision, coeffs):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "precision", precision)
        # ((element, coefficient), ...) sorted, zero entries dropped
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def make(cls, group, prime, precision, mapping):
        mod = prime ** precision
        items = tuple(sorted((g, c % mod) for g, c in mapping.items() if c % mod))
        return cls(group, prime, precision, items)

    def _as_dict(self):
        return dict(self.coeffs)

    @property
    def modulus(self):
        return self.prime ** self.precision

    def _check_compat(self, other):
        if (self.group, self.prime, self.precision) != \
                (other.group, other.prime, other.precision):
            raise GModuleError("group algebra mismatch")

    def _plus(self, other, sign):
        self._check_compat(other)
        out = self._as_dict()
        for g, c in other.coeffs:
            out[g] = out.get(g, 0) + sign * c
        return GroupAlgebraElement.make(self.group, self.prime, self.precision, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupAlgebraElement.make(
                self.group, self.prime, self.precision,
                {g: c * other for g, c in self.coeffs})
        self._check_compat(other)
        out = {}
        for g, c in self.coeffs:
            for h, d in other.coeffs:
                k = self.group.add(g, h)
                out[k] = out.get(k, 0) + c * d
        return GroupAlgebraElement.make(self.group, self.prime, self.precision, out)

    __rmul__ = __mul__

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, g):
        return self._as_dict().get(self.group.reduce(g), 0)


def algebra_one(group, p, m):
    return GroupAlgebraElement.make(group, p, m, {group.zero(): 1})


# F_p[x] arithmetic on coefficient lists, lowest degree first, with no
# trailing zeros (the zero polynomial is [])

def _fp_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _fp_divmod(a, b, p):
    """Quotient and remainder of a by a nonzero b."""
    r = [c % p for c in a]
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(r) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + len(b) - 1] * inv % p
        q[i] = c
        for j, bj in enumerate(b):
            r[i + j] = (r[i + j] - c * bj) % p
    return _fp_trim(q), _fp_trim(r[:len(b) - 1])


def _fp_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _fp_trim(out)


def _fp_gcd(a, b, p):
    """Monic gcd of a nonzero a and any b."""
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_inverse(a, f, p):
    """a^-1 mod f, by the extended Euclidean algorithm; s_i a = r_i mod f."""
    r0, r1 = f, _fp_divmod(a, f, p)[1]
    s0, s1 = [], [1]
    while len(r1) > 1:
        q, r = _fp_divmod(r0, r1, p)
        qs = itertools.zip_longest(s0, _fp_mul(q, s1, p), fillvalue=0)
        s0, s1 = s1, _fp_trim([(a - b) % p for a, b in qs])
        r0, r1 = r1, r
    if not r1:
        raise GModuleError("polynomial is not invertible mod %d" % p)
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in s1]


def _cyclic_idempotents_modp(d, p):
    """Primitive idempotents of F_p[C_d] as coefficient lists indexed by
    exponent of the generator, one per irreducible factor of x^d - 1.

    For p not dividing d, the polynomials b with b^p = b mod x^d - 1
    (Berlekamp's subalgebra) are spanned by the orbit sums sum_{j in O} x^j
    over the orbits O of j -> p j mod d, one orbit per irreducible factor.
    Every factor f of x^d - 1 is then the product of the gcd(f, b - t),
    t in F_p, and the orbit sums b together separate all irreducible
    factors (Berlekamp, Math. Comp. 24, 1970; Cohen, GTM 138, 3.4).  The
    factors are listed by degree, then by coefficients from the top."""
    if d % p == 0:
        raise GModuleError("x^%d - 1 is not squarefree mod %d" % (d, p))
    orbits, seen = [], set()
    for j in range(d):
        if j not in seen:
            orbit, k = [j], j * p % d
            while k != j:
                orbit.append(k)
                k = k * p % d
            seen.update(orbit)
            orbits.append(orbit)
    modulus = [p - 1] + [0] * (d - 1) + [1]
    factors = [modulus]
    for orbit in orbits:
        if len(factors) == len(orbits):
            break
        b = [int(j in orbit) for j in range(d)]
        split = []
        for f in factors:
            bf = _fp_divmod(b, f, p)[1]
            if len(bf) <= 1:
                split.append(f)
                continue
            for t in range(p):
                g = _fp_gcd(f, [(bf[0] - t) % p] + bf[1:], p)
                if len(g) > 1:
                    split.append(g)
        factors = split
    factors.sort(key=lambda f: (len(f), f[::-1]))
    out = []
    for f in factors:
        cof = _fp_divmod(modulus, f, p)[0]
        inv = _fp_inverse(cof, f, p)
        e = [0] * d  # cof * (cof^-1 mod f) mod x^d - 1
        for i, x in enumerate(cof):
            for j, y in enumerate(inv):
                e[(i + j) % d] += x * y
        out.append([c % p for c in e])
    return out


def _hensel_lift(e, target_precision):
    """Lift an idempotent of (Z/p)[G] to (Z/p^m)[G] via e <- 3e^2 - 2e^3."""
    prec = e.precision
    while prec < target_precision:
        prec = min(prec * 2, target_precision)
        e = GroupAlgebraElement.make(e.group, e.prime, prec, e._as_dict())
        e = 3 * (e * e) - 2 * (e * e * e)
    return e


def primitive_idempotents(G: AbelianGroup, p: int, m: int):
    """Pairwise orthogonal primitive idempotents of (Z/p^m)[G] summing to 1.

    Factor idempotents of the mod-p group algebra (by factoring x^d - 1 over
    F_p per cyclic invariant factor, with Berlekamp's split by the orbit
    sums of j -> p j mod d) are multiplied out over the factors and
    Hensel-lifted to precision m; characters with values outside F_p appear
    orbit-summed."""
    if G.order() % p == 0:
        raise GModuleError("prime divides the group order")
    if m < 1:
        raise GModuleError("precision must be >= 1")
    per_factor = [_cyclic_idempotents_modp(d, p) for d in G.invariant_factors]
    idems = []
    for combo in itertools.product(*per_factor):
        mapping = {}
        for g in G.elements():
            c = 1
            for coord, coeff_list in zip(g, combo):
                c = (c * coeff_list[coord]) % p
            if c:
                mapping[g] = c
        e = GroupAlgebraElement.make(G, p, 1, mapping)
        idems.append(_hensel_lift(e, m))
    return idems


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
            out = out + Homomorphism(
                self.module, self.module,
                [[c * x for x in row] for row in self.act_element(g).matrix])
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
    """Internal direct product decomposition A = prod e_alpha(A)."""
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
        if not is_prime(p):
            raise GModuleError("p = %r is not a prime" % (p,))
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
    """Stable when rk(N(A_L)) = rk(A_L) and rk(A_K) = rk(A_K^p); semi-stable
    when s^(p-1) annihilates A_L; wild otherwise (relative to those two
    conditions; the tame case of the taxonomy has no computable definition)."""
    p = d.p
    # p Z/f is Z/(f/gcd(f, p)), so rk(A_K^p) counts the invariant factors f
    # of A_K with p^2 | f, and rk(A_K) = rk(A_K^p) when no f has p || f
    if d.norm.image().structure().rank(p) == d.A_L.rank(p) and \
            all(f % p or f % (p * p) == 0 for f in d.A_K.invariant_factors):
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
    AKprime = d.norm.image()
    S, to_coords, _ = AKprime.structure_with_coords()
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
