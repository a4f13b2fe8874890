"""Finite p-groups from consistent polycyclic presentations.

Every generator has relative order p, so the group has order p^n and each
element a unique normal word g1^e1 ... gn^en with 0 <= ei < p.  Stored
relations:

    power:      gi^p   = tail word in g_{i+1} .. g_n
    commutator: [gj,gi] = tail word in g_{j+1} .. g_n   (i < j)

with [x, y] = x^-1 y^-1 x y, so gj gi = gi gj^gi with gj^gi = gj [gj,gi].

Numbering.  An element is the number of its normal word in exponent-vector
order: u = sum_m e_m w_m with w_m = p^(n-1-m), so the exponents of u are its
base-p digits, g_m is w_m, the identity is 0 and numbers sort as exponent
vectors do.  PcGroup.exponents(u) gives the exponent tuple, for display.
PcGroup keeps one integer column per generator, _cols[k][u] = u g_k.  mult
applies the letters of v, its digits, to u, one lookup each; a set of
elements is a list of numbers mapped one letter, one column, at a time.
The columns are PcGroup's only multiplication data.

Inverses.  Multiplying by g_k changes no exponent before position k (see
below), so inv clears u's exponents from the left by right collection: at
step k the running number i has i // w_k = e_k, and column k is applied
v_k = (p - e_k) mod p times.  Then u g_0^v_0 ... g_{n-1}^v_{n-1} = 1, so
u^-1 = sum_k v_k w_k (Sims, Computation with Finitely Presented Groups,
ch. 9).

Filling a column.  u g_k is what collection from the left on the exponent
vector of u gives:

    u g_k = x . (power tail of g_k, if e_k wraps to 0) . prod_{l>k} (g_l^g_k)^e_l

with x the word u cut after position k and e_k raised by one.  Every letter
on the right lies above k, so the columns are filled from g_n down to g_1,
each by strided slices, never word by word:

  - the words with nothing above k and e_k = e < p - 1 sit at
    col[e w_k :: p w_k], and u g_k is u + w_k;
  - those with e_k = p - 1 map to x, the numbers range(0, N, p w_k), times
    the letters of the power tail;
  - for m = k+1 .. n-1 and e = 1 .. p-1, the words whose last nonzero
    exponent is e_m = e sit at col[e w_m :: p w_m]; u = u' g_m with u' at
    col[(e-1) w_m :: p w_m], already filled, and u g_k = (u' g_k) g_m^g_k:
    that slice mapped through the letters of g_m [g_m, g_k].

Each step is a rewrite by the rules below, so every entry is a normal word
that u g_k rewrites to, whether or not the presentation is consistent.

Consistency.  Read as rewriting rules on positive words, gi^p -> tail_i and
gj gi -> gi gj [gj,gi] (j > i) terminate: with g1 > ... > gn, a word read
from its right end as a nested term decreases under each rule in the
recursive path ordering (Dershowitz 1982), which is well-founded and
compatible with prefixes and suffixes.  The irreducible words are the
normal words, so by Newman's lemma the presentation defines a group of order
p^n exactly when every critical pair of rules rewrites to one normal word
(Knuth-Bendix).  The critical pairs come from the overlaps ("test words",
Wamsley 1974; Vaughan-Lee, J. Symbolic Comput. 9, 1990)

    gi^(p+1),  gj^p gi,  gj gi^p  (j > i),  gk gj gi  (k > j > i);

an overlap gi^(p+t), 1 < t < p, is a chain of gi^(p+1) overlaps that the
induction of Newman's lemma joins.  Every column entry is a rewriting
descendant of u g_k, so collecting a word letter by letter from the identity
gives a normal descendant of it; PcGroup._prove_consistency compares the two
reducts of each overlap that way, O(n^3) lookups, and raises
PresentationError naming the first overlap whose two sides differ.

Subgroups.  The depth of u != 1 is the position d of its first nonzero
exponent, and G_d = <g_d, ..., g_n> holds the elements of depth >= d.  A
subgroup H is a SubgroupDescriptor of its canonical induced pcgs (Sims,
ch. 9; Holt-Eick-O'Brien, Handbook of Computational Group Theory, ch. 8):
one element per depth of H, each with exponent 1 at its own depth and 0 at
H's other depths, so equal subgroups are equal descriptors and
|G : H| = p^(n - len(pcgs)).  The tails of [g_j, g_i] lie above j, so each
G_d is normal in G and G_d/G_{d+1} is central in G/G_{d+1}: multiplying x
from the left by an element of depth d keeps x's exponents before d and
adds at d.  H.label(x) is x multiplied from the left by powers of the pcgs,
in depth order, until its exponent is 0 at every depth of H.  It is the
least element of H x: any other element h c of that coset, with c the label
and 1 != h in H, agrees with c before the depth of h and is nonzero there,
where c is 0.  PcGroup.subgroup labels each pending element against a table
of one element per depth; a label c != 1 of leading exponent e enters the
table as c^m with m e = 1 mod |G|, whose e-th power is c, so everything
pending labels to 1 against the final table.  Each entry adds its p-th
power, its commutators with the other entries and any requested conjugates
to the pending list.  Once all label to 1, the entries' normal words
h_1^a_1 ... h_k^a_k are closed under products, by collection with those
powers and commutators (which terminates as G's own does), so they are the
subgroup generated; the pcgs is each entry labelled against the deeper
ones.  A subgroup of index p above G' needs no closure: it is the kernel
of a homomorphism onto Z/p, linear in the exponents, so its pcgs is written
down from that map's values on g_1, ..., g_n
(subgroups_index_p_above_derived).  Cosets are named by their least
elements, as a walk over all of G would name them, so coset
representatives, transversals, H/H' coordinates and the pinned catalog
outputs built from them do not depend on the pcgs.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from operator import mul

from .abgroup import (AbelianGroup, Homomorphism, Subgroup, abelian_structure,
                      check_prime, op_power)
from .value import value_type


class PresentationError(ValueError):
    pass


# PcGroup holds p^n entries per generator; 5^10 still builds
MAX_ORDER = 10 ** 7


def _word_letters(word):
    """Expand ((gen, exp), ...) into single generator letters."""
    out = []
    for g, e in word:
        out.extend([g] * e)
    return out


def _mapped(nums, cols):
    """The numbers nums mapped through each column of cols in turn."""
    for col in cols:
        nums = list(map(col.__getitem__, nums))
    return nums


class PcGroup:
    """Finite p-group with a consistent polycyclic presentation.

    power_tails[i] is the word for g_i^p; conj_tails[(j, i)] (j > i) the word
    for [g_j, g_i], both as tuples of (generator_index, exponent) with
    generator indices 0-based and strictly above i resp. j.  Missing
    commutator entries mean the generators commute.
    """

    def __init__(self, p, ngens, power_tails, conj_tails, name=None):
        check_prime(p, PresentationError)
        if not isinstance(ngens, int) or ngens < 0:
            raise PresentationError("ngens = %r is not a count of generators"
                                    % (ngens,))
        # p >= 2, so an n above the bound's bit length is refused on n alone
        if ngens > MAX_ORDER.bit_length() or p ** ngens > MAX_ORDER:
            raise PresentationError("order %d^%d is above the bound %d"
                                    % (p, ngens, MAX_ORDER))
        self.p = p
        self.n = ngens
        self.name = name
        if isinstance(power_tails, dict):
            for i in power_tails:
                if not (isinstance(i, int) and 0 <= i < ngens):
                    raise PresentationError("power tail key %r is not a "
                                            "generator index 0..%d"
                                            % (i, ngens - 1))
            power_tails = [power_tails.get(i, ()) for i in range(ngens)]
        elif len(power_tails) != ngens:
            raise PresentationError("%d power tails for %d generators"
                                    % (len(power_tails), ngens))
        self.power_tails = [self._tail(t, i, "power tail of g%d" % (i + 1))
                            for i, t in enumerate(power_tails)]
        self.conj_tails = {}
        for key, tail in conj_tails.items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(isinstance(g, int) for g in key)
                    and 0 <= key[1] < key[0] < ngens):
                raise PresentationError("commutator key %r is not a pair j > i"
                                        " of generator indices 0..%d"
                                        % (key, ngens - 1))
            tail = self._tail(tail, key[0], "commutator tail [g%d,g%d]"
                              % (key[0] + 1, key[1] + 1))
            if tail:
                self.conj_tails[key] = tail
        self._gens = tuple(p ** (ngens - 1 - m) for m in range(ngens))  # w_m
        self._build()

    # -- presentation plumbing -------------------------------------------

    def _tail(self, word, above, what):
        """word as a tuple of (generator, exponent) pairs, checked."""
        try:
            pairs = tuple((g, e) for g, e in word)
        except (TypeError, ValueError):
            raise PresentationError("%s is not a sequence of (generator, "
                                    "exponent) pairs" % what) from None
        for g, e in pairs:
            if not (isinstance(g, int) and isinstance(e, int)):
                raise PresentationError("%s holds the non-integer letter %r"
                                        % (what, (g, e)))
            if not (above < g < self.n and 1 <= e < self.p):
                raise PresentationError("%s uses invalid letter g%d^%d"
                                        % (what, g + 1, e))
        return pairs

    def _build(self):
        # the slice fill of the module docstring, from g_n down to g_1; each
        # letter of a power tail or conjugate lies above k, so its column is
        # finished
        p, n, size, weight = self.p, self.n, self.order, self._gens
        cols = [None] * n
        for k in reversed(range(n)):
            col = [0] * size
            w, step = weight[k], p * weight[k]
            for e in range(p - 1):
                col[e * w::step] = range((e + 1) * w, size + w, step)
            col[(p - 1) * w::step] = _mapped(
                range(0, size, step),
                [cols[g] for g in _word_letters(self.power_tails[k])])
            for m in range(k + 1, n):
                conj = [cols[g] for g in [m] + _word_letters(
                    self.conj_tails.get((m, k), ()))]
                w, step = weight[m], p * weight[m]
                for e in range(1, p):
                    col[e * w::step] = _mapped(col[(e - 1) * w::step], conj)
            cols[k] = col
        self._cols = cols  # the only multiplication data, |G| n numbers
        self._prove_consistency()

    def _prove_consistency(self):
        """Raise PresentationError unless the two reducts of every overlap
        collect, letter by letter from the identity on the columns, to one
        normal word; that proves the group has order p^n (module
        docstring).  Overlaps are tried in the order gi^(p+1), gj^p gi,
        gj gi^p, gk gj gi; the message names the first that fails.  The
        first side is the overlap itself, whose collection rewrites its
        leftmost rule first; the second rewrites its rightmost rule:

            gi^(p+1)   against  gi . tail_i
            gj^p gi    against  gj^(p-1) gi gj [gj,gi]
            gj gi^p    against  gj . tail_i
            gk gj gi   against  gk gi gj [gj,gi]"""
        p, n, cols = self.p, self.n, self._cols
        tail = [_word_letters(t) for t in self.power_tails]

        def comm(j, i):
            return _word_letters(self.conj_tails.get((j, i), ()))

        def collected(letters):
            u = 0
            for g in letters:
                u = cols[g][u]
            return u

        overlaps = itertools.chain(
            (("g%d^%d" % (i + 1, p + 1), [i] * (p + 1), [i] + tail[i])
             for i in range(n)),
            (("g%d^%d g%d" % (j + 1, p, i + 1), [j] * p + [i],
              [j] * (p - 1) + [i, j] + comm(j, i))
             for i, j in itertools.combinations(range(n), 2)),
            (("g%d g%d^%d" % (j + 1, i + 1, p), [j] + [i] * p, [j] + tail[i])
             for i, j in itertools.combinations(range(n), 2)),
            (("g%d g%d g%d" % (k + 1, j + 1, i + 1), [k, j, i],
              [k, i, j] + comm(j, i))
             for i, j, k in itertools.combinations(range(n), 3)))
        for name, lhs, rhs in overlaps:
            if collected(lhs) != collected(rhs):
                raise PresentationError("presentation inconsistent: overlap "
                                        "%s fails" % name)

    # -- group operations -------------------------------------------------

    identity = 0

    @property
    def order(self):
        return self.p ** self.n

    def elements(self):
        return range(self.order)

    def generators(self):
        return list(self._gens)

    def exponents(self, u):
        """The exponent tuple (e1, ..., en) of u: its base-p digits."""
        e = []
        for w in self._gens:
            d, u = divmod(u, w)
            e.append(d)
        return tuple(e)

    def mult(self, u, v):
        """u v: the letters of v applied to u, at most n(p-1) lookups.  v
        holds e_k letters g_k, its base-p digits, so column k is applied
        while w_k still fits in what is left of v.  u and v must be element
        numbers 0 <= u, v < |G|; this hot path does not check them, while
        subgroup, derived_of and transfer check the elements they are
        given."""
        for col, w in zip(self._cols, self._gens):
            while v >= w:
                v -= w
                u = col[u]
        return u

    def inv(self, u):
        """u^-1 by right collection (module docstring), at most n(p-1)
        lookups; u must be an element number 0 <= u < |G|, unchecked as in
        mult."""
        p, v, w = self.p, 0, self.order
        for col in self._cols:
            w //= p
            e = -(u // w) % p
            for _ in range(e):
                u = col[u]
            v += e * w
        return v

    def power(self, u, k):
        """u^k for any integer k: u^|G| = 1, so k is taken mod |G| and
        `op_power` squares and multiplies, at most 2 log2 |G| products."""
        return op_power(u, k % self.order, self.mult, self.identity)

    def element_order(self, u):
        o = 1
        w = u
        while w != self.identity:
            w = self.mult(w, u)
            o += 1
        return o

    def commutator(self, x, y):
        return self.mult(self.mult(self.inv(x), self.inv(y)), self.mult(x, y))

    def conjugate(self, x, t):
        """t^-1 x t."""
        return self.mult(self.mult(self.inv(t), x), t)

    def collect(self, word):
        """The element that a word given as ((gen_index, exponent), ...)
        collects to; exponents may be any integers."""
        w = self.identity
        for letter in word:
            try:
                g, e = letter
            except (TypeError, ValueError):
                raise PresentationError("letter %r is not a (generator, "
                                        "exponent) pair" % (letter,)) from None
            if not (isinstance(g, int) and isinstance(e, int)):
                raise PresentationError("letter %r is not a pair of integers"
                                        % (letter,))
            if not 0 <= g < self.n:
                raise PresentationError("letter g%d out of range" % (g + 1))
            w = self.mult(w, self.power(self._gens[g], e))
        return w

    # -- subgroups ----------------------------------------------------------

    def _element(self, u):
        """u, checked to be an element number 0 <= u < |G|."""
        if not (isinstance(u, int) and 0 <= u < self.order):
            raise PresentationError("%r is not an element of this group of "
                                    "order %d" % (u, self.order))
        return u

    def _depth(self, u):
        """The position of the first nonzero exponent of u != 1."""
        return next(d for d, w in enumerate(self._gens) if u >= w)

    def _powers(self, u, v):
        """The products v, v u, ..., v u^(p-1), as an iterator."""
        return itertools.accumulate(itertools.repeat(u, self.p - 1),
                                    self.mult, initial=v)

    def _sifter(self, h):
        """(w_d, [1, h^-1, ..., h^-(p-1)]) for h of depth d with leading
        exponent 1: h^-e times x has exponent e_d(x) - e at d."""
        return (self._gens[self._depth(h)],
                list(self._powers(self.inv(h), self.identity)))

    def _sift(self, x, sifters):
        """x multiplied from the left by the sifters' powers, in depth
        order, until its exponent is 0 at each of their depths."""
        p, mult = self.p, self.mult
        for w, inverse_powers in sifters:
            e = x // w % p
            if e:
                x = mult(inverse_powers[e], x)
        return x

    def subgroup(self, gens, conjugators=()):
        """The subgroup generated by gens as a SubgroupDescriptor; with
        conjugators, the least subgroup that holds gens and is normalised by
        every conjugator (module docstring)."""
        pending = [self._element(x) for x in gens]
        conjugators = [self._element(a) for a in conjugators]
        table = {}  # depth -> (element, its sifter)
        while pending:
            x = self._sift(pending.pop(),
                           [table[d][1] for d in sorted(table)])
            if x == self.identity:
                continue
            d = self._depth(x)
            # x^m with m e_d(x) = 1 mod |G| has leading exponent 1, and x is
            # its e_d(x)-th power, so x itself now sifts to 1
            x = self.power(x, pow(x // self._gens[d], -1, self.order))
            pending.append(self.power(x, self.p))
            pending += [self.commutator(x, t) if d > e else
                        self.commutator(t, x) for e, (t, _) in table.items()]
            pending += [self.conjugate(x, a) for a in conjugators]
            table[d] = x, self._sifter(x)
        depths = sorted(table)
        return SubgroupDescriptor(self, tuple(
            self._sift(table[d][0], [table[e][1] for e in depths[i + 1:]])
            for i, d in enumerate(depths)))

    @cached_property
    def as_subgroup(self):
        """G as a SubgroupDescriptor of itself: G' and G/G' are its cached
        derived and abelianization, computed as for any subgroup."""
        return SubgroupDescriptor(self, self._gens)

    def derived_subgroup(self):
        return self.as_subgroup.derived

    def derived_of(self, gens):
        """Derived subgroup of the subgroup H generated by gens, as a
        SubgroupDescriptor: the least normal subgroup of H holding the
        commutators [a, b], a before b in gens ([a, a] is 1 and [b, a] is
        the inverse of [a, b])."""
        gens = [self._element(a) for a in gens]
        return self.subgroup([self.commutator(a, b)
                              for a, b in itertools.combinations(gens, 2)],
                             gens)

    def quotient_structure(self, H, N):
        """Abelian structure of H/N, for subgroups N <= H with N normal in H
        and H/N abelian.  Returns (AbelianGroup, projection element of H ->
        coords, lift of each invariant-factor generator to an element of H).
        A coset xN = Nx is named by N.label(x); the products of H's pcgs
        elements at the depths that N lacks meet each coset once."""
        depths_N = {self._depth(h) for h in N.pcgs}
        reps = [self.identity]
        for h in H.pcgs:
            if self._depth(h) not in depths_N:
                reps = [y for r in reps for y in self._powers(h, r)]
        label = N.label
        reps = sorted(map(label, reps))

        def qop(a, b):
            return label(self.mult(a, b))

        res = abelian_structure(reps, qop, self.identity)
        coords = cache(res.coords)  # proj meets only a few cosets

        def proj(x):
            return coords(label(x))

        return res.group, proj, res.generators

    def abelianization(self):
        """(G/G' as AbelianGroup, projection element->coords, generator lifts)."""
        return self.as_subgroup.abelianization

    @cached_property
    def _index_p_subgroups(self):
        """subgroups_index_p_above_derived(self), as a tuple."""
        p = self.p
        A, proj, _ = self.abelianization()
        r = A.rank(p)
        if r < 1:
            raise PresentationError("G/G' must have rank >= 1")
        images = [proj(g) for g in self._gens]
        derived = [self.exponents(h) for h in self.derived_subgroup().pcgs]
        subs = []
        for v in normalized_lines(p, r):  # r = A.ngens for a p-group
            phi = (v[1], -v[0]) if r == 2 else v
            c = [sum(map(mul, phi, x)) % p for x in images]
            if any(sum(map(mul, c, e)) % p for e in derived):
                raise PresentationError("functional %r on G/G' does not "
                                        "vanish on G'" % (phi,))
            delta = max(i for i, ci in enumerate(c) if ci)
            w = self._gens[delta]
            scale = -pow(c[delta], -1, p)
            subs.append(SubgroupDescriptor(self, tuple(
                w_d + c[d] * scale % p * w if d < delta else w_d
                for d, w_d in enumerate(self._gens) if d != delta)))
        return tuple(subs)


@value_type("ambient", "pcgs")
class SubgroupDescriptor:
    """A subgroup of ambient by its canonical induced pcgs, in depth order
    (module docstring): equal subgroups are equal descriptors, and
    subgroups of two PcGroup objects never are."""

    def __init__(self, ambient, pcgs):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "pcgs", pcgs)

    @property
    def index(self):
        return self.ambient.p ** (self.ambient.n - len(self.pcgs))

    # cached: neither the descriptor nor its ambient group ever changes
    @cached_property
    def _sifters(self):
        """The sifters of the pcgs above the deepest depth that H lacks,
        and the weight of that depth (|G| when H = G)."""
        G = self.ambient
        depths = [G._depth(h) for h in self.pcgs]
        gap = max(set(range(G.n)) - set(depths), default=-1)
        return ([G._sifter(h) for h, d in zip(self.pcgs, depths) if d < gap],
                G._gens[gap] if gap >= 0 else G.order)

    def label(self, x):
        """The least element of the right coset H x: x sifted from the left
        until its exponent is 0 at every depth of H.  Every depth below the
        deepest one H lacks is H's, so those exponents end as 0 unsifted."""
        sifters, w = self._sifters
        x = self.ambient._sift(x, sifters)
        return x - x % w

    @cached_property
    def transversal(self):
        """schreier_transversal(ambient, self), as a tuple."""
        return tuple(schreier_transversal(self.ambient, self))

    @cached_property
    def derived(self):
        """H', as a SubgroupDescriptor."""
        return self.ambient.derived_of(self.pcgs)

    @cached_property
    def abelianization(self):
        """(H/H', projection, generator lifts), as G.abelianization()."""
        return self.ambient.quotient_structure(self, self.derived)

    @cached_property
    def default_transfer(self):
        """transfer(ambient, self) over self.transversal; the map is frozen,
        so every caller shares it."""
        return _transfer_product(self.ambient, self, self.transversal)


def normalized_lines(p, r):
    """Directions in F_p^r with first nonzero coordinate 1, lexicographic."""
    return [v for v in itertools.product(range(p), repeat=r)
            if any(v) and next(x for x in v if x) == 1]


def subgroups_index_p_above_derived(G: PcGroup):
    """The (p^r - 1)/(p - 1) subgroups of index p containing G', where r is
    the rank of G/G'.  For r = 2 they are ordered as lines of
    G/(G' G^p) = F_p^2 by normalized direction vector; otherwise as
    hyperplane functionals by normalized coefficient vector.  Each is the
    kernel H of a functional phi on G/G' (the line through v is the kernel
    of (v2, -v1) for r = 2; otherwise phi is v), read off without any
    group product:

      - let c_i = phi(proj(g_i)) mod p for the n pc generators; phi o proj
        is a homomorphism into Z/p and x is its normal word, so
        phi(x) = sum_i e_i(x) c_i mod p for every x;
      - with delta the last i where c_i != 0, an element of depth delta has
        phi = e_delta c_delta != 0, and g_d with d > delta lies in H, so H
        lacks exactly depth delta;
      - its canonical pcgs is w_d + ((-c_d / c_delta) mod p) w_delta for
        d < delta and w_d for d > delta: each has exponent 1 at its own
        depth, 0 at H's other depths, and phi = 0.

    PresentationError unless phi, so computed, vanishes on the pcgs of G',
    as every subgroup above G' must.  The lattice is computed once per
    group; each call returns a fresh list."""
    return list(G._index_p_subgroups)


def schreier_transversal(G: PcGroup, H: SubgroupDescriptor):
    """Canonical right-coset representatives of H in G by breadth-first
    search over H t g, starting at the identity coset, generators in order;
    a coset H x is named by H.label(x), its least element.  Returns the
    transversal as a list, sorted by coset label; the identity is first."""
    label = H.label
    ident = G.identity
    gens = G.generators()
    trans = {label(ident): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                u = G.mult(t, g)
                key = label(u)
                if key not in trans:
                    trans[key] = u
                    nxt.append(u)
        frontier = nxt
    if len(trans) != H.index:
        raise PresentationError("transversal size differs from the index")
    return [trans[k] for k in sorted(trans)]


def transfer(G: PcGroup, H: SubgroupDescriptor,
             transversal=None) -> Homomorphism:
    """The transfer (Verlagerung) G/G' -> H/H' as a Homomorphism, computed
    by the transversal product formula
    Ver(g G') = prod_i t_i g t_{sigma_g(i)}^-1 mod H', where t_{sigma_g(i)}
    represents the right coset H t_i g.  The transversal defaults to
    H.transversal, the Schreier transversal; an explicit one must hold one
    element of each right coset of H.  H must be a subgroup of G itself.
    The default map is computed once per subgroup, H.default_transfer; an
    explicit transversal is computed on every call."""
    if H.ambient is not G:
        raise PresentationError("subgroup belongs to a different group")
    if transversal is None:
        return H.default_transfer
    keys = {H.label(G._element(t)) for t in transversal}
    if len(transversal) != H.index or len(keys) != H.index:
        raise PresentationError("not a transversal")
    return _transfer_product(G, H, transversal)


def _transfer_product(G, H, transversal):
    label = H.label
    A_G, _, gens_G = G.abelianization()
    A_H, proj_H, _ = H.abelianization
    rep_inv = {label(t): G.inv(t) for t in transversal}
    cols = []
    for g in gens_G:
        total = A_H.zero()
        for t in transversal:
            u = G.mult(t, g)
            # t g = h t2 with t2 the representative of the coset H t g
            c = proj_H(G.mult(u, rep_inv[label(u)]))
            total = tuple(a + b for a, b in zip(total, c))
        cols.append(A_H.reduce(total))
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(A_H.ngens)]
    return Homomorphism(A_G, A_H, matrix)


@value_type("subgroup_no", "kernel", "code")
class CapitulationEntry:
    def __init__(self, subgroup_no, kernel, code):
        # subgroup_no is 1-based, in canonical line order; code is 0 for the
        # full kernel, 1..p+1 for a line index and None when flagged
        object.__setattr__(self, "subgroup_no", subgroup_no)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "code", code)

    @property
    def flagged(self):
        return self.code is None


def _line_subgroups(A: AbelianGroup, p):
    """The p+1 order-p subgroups of a rank-2 abelian p-group, in canonical
    line order of the p-torsion."""
    d1, d2 = A.invariant_factors
    return [Subgroup.from_generators(A, [(v[0] * d1 // p, v[1] * d2 // p)])
            for v in normalized_lines(p, 2)]


def capitulation_type(G: PcGroup):
    """Transfer-kernel pattern over the p+1 index-p subgroups above G'.

    Requires rank(G/G') = 2 for the integer encoding; kernels that are
    neither a canonical line nor the full group are returned flagged.  The
    subgroups, their transversals and H/H' are the group's shared index-p
    lattice, so catalog_relative_data reuses them."""
    A, _, _ = G.abelianization()
    lines = _line_subgroups(A, G.p) if A.ngens == 2 else []
    codes = {line: j for j, line in enumerate(lines, start=1)}
    codes[Subgroup.full(A)] = 0
    entries = []
    for i, H in enumerate(subgroups_index_p_above_derived(G), start=1):
        ker = transfer(G, H).kernel()
        entries.append(CapitulationEntry(i, ker, codes.get(ker)))
    return entries
