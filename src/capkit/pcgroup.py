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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property

from .abgroup import (AbelianGroup, Homomorphism, Subgroup, abelian_structure,
                      is_prime)


class PresentationError(ValueError):
    pass


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
        if not is_prime(p):
            raise PresentationError("p = %r is not a prime" % (p,))
        if not isinstance(ngens, int) or ngens < 0:
            raise PresentationError("ngens = %r is not a count of generators"
                                    % (ngens,))
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
        self._index_p_subgroups = None
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
        while w_k still fits in what is left of v."""
        for col, w in zip(self._cols, self._gens):
            while v >= w:
                v -= w
                u = col[u]
        return u

    def inv(self, u):
        """u^-1 by right collection (module docstring), at most n(p-1)
        lookups."""
        p, v, w = self.p, 0, self.order
        for col in self._cols:
            w //= p
            e = -(u // w) % p
            for _ in range(e):
                u = col[u]
            v += e * w
        return v

    def _letter_cols(self, u):
        """The column of each letter of u, in order, read as in mult."""
        out = []
        for col, w in zip(self._cols, self._gens):
            while u >= w:
                u -= w
                out.append(col)
        return out

    def power(self, u, k):
        """u^k for any integer k; u^|G| = 1, so k is taken mod |G|, then
        square-and-multiply: O(log |G|) products."""
        k %= self.order
        w = self.identity
        while k:
            if k & 1:
                w = self.mult(w, u)
            u = self.mult(u, u)
            k >>= 1
        return w

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
        for g, e in word:
            if not 0 <= g < self.n:
                raise PresentationError("letter g%d out of range" % (g + 1))
            w = self.mult(w, self.power(self._gens[g], e))
        return w

    # -- subgroup machinery ------------------------------------------------

    def closure(self, gens):
        """Subgroup generated by the given elements, as a frozenset."""
        gens = list(gens)
        return self._grow(frozenset({self.identity}), gens, gens)

    def _grow(self, sub, gens, new):
        """Subgroup generated by gens, given the subgroup sub generated by
        the gens not in new: walks only sub*new outside sub and its reach,
        each step a list of numbers mapped through a generator's letters."""
        seen = set(sub)
        frontier = list(seen)
        step = [self._letter_cols(g) for g in new]
        gen_cols = [self._letter_cols(g) for g in gens]
        while frontier:
            reached = set()
            for cols in step:
                reached.update(_mapped(frontier, cols))
            reached -= seen
            seen |= reached
            frontier, step = list(reached), gen_cols
        return frozenset(seen)

    @cached_property
    def as_subgroup(self):
        """G as a SubgroupDescriptor of itself: G' and G/G' are its cached
        derived and abelianization, computed as for any subgroup."""
        return SubgroupDescriptor(self, self._gens,
                                  frozenset(self.elements()), 1)

    def derived_subgroup(self):
        return self.as_subgroup.derived

    def derived_of(self, gens):
        """Derived subgroup of the subgroup H generated by gens: the normal
        closure in H of the commutators [a, b], a before b in gens: [a, a]
        is 1 and [b, a] is the inverse of [a, b]."""
        gens = list(gens)
        normal_gens, closed = [], frozenset({self.identity})
        pending = [self.commutator(a, b)
                   for a, b in itertools.combinations(gens, 2)]
        while pending:
            x = pending.pop()
            if x not in closed:
                normal_gens.append(x)
                closed = self._grow(closed, normal_gens, [x])
                pending.extend(self.conjugate(x, a) for a in gens)
        return closed

    def quotient_structure(self, subset_elements, normal_subgroup):
        """Abelian structure of subset/normal_subgroup (the quotient must be
        abelian).  Returns (AbelianGroup, proj element->coords, lift of each
        invariant-factor generator back to a subset element)."""
        # xN = Nx, so the right-coset labels name the cosets of the quotient
        rep = self.coset_labels(subset_elements, normal_subgroup)
        reps = sorted(set(rep.values()))

        def qop(a, b):
            return rep[self.mult(a, b)]

        res = abelian_structure(reps, qop, rep[self.identity])
        coords = cache(res.coords)  # proj meets only a few cosets

        def proj(x):
            return coords(rep[x])

        return res.group, proj, res.generators

    def coset_labels(self, elements, subgroup):
        """{x: least element of the right coset subgroup x} for every x in
        elements, a union of right cosets of subgroup.  Walking elements in
        ascending order, the first unlabelled x of a coset is its least
        element; it labels the whole coset, the numbers of subgroup mapped
        through the letters of x."""
        hs = list(subgroup)
        label = {}
        for x in sorted(elements):
            if x not in label:
                label.update(dict.fromkeys(
                    _mapped(hs, self._letter_cols(x)), x))
        return label

    def abelianization(self):
        """(G/G' as AbelianGroup, projection element->coords, generator lifts)."""
        return self.as_subgroup.abelianization


@dataclass(frozen=True)
class SubgroupDescriptor:
    ambient: PcGroup = field(compare=False)
    generators: tuple
    elements: frozenset
    index: int

    @classmethod
    def from_elements(cls, G, elements):
        elements = frozenset(elements)
        if not elements:
            raise PresentationError("a subgroup cannot be empty")
        if G.order % len(elements):
            raise PresentationError("subgroup order does not divide group order")
        # greedy small generating set, each closure grown from the last
        gens = []
        current = frozenset({G.identity})
        for x in sorted(elements):
            if x not in current:
                gens.append(x)
                current = G._grow(current, gens, [x])
        if current != elements:
            raise PresentationError("generated set not closed")
        return cls(G, tuple(gens), elements, G.order // len(elements))

    # cached: neither the descriptor nor its ambient group ever changes
    @cached_property
    def coset_label(self):
        """{x: least element of the right coset H x} over the ambient group."""
        G = self.ambient
        return G.coset_labels(G.elements(), self.elements)

    @cached_property
    def transversal(self):
        """schreier_transversal(ambient, self), as a tuple."""
        return tuple(schreier_transversal(self.ambient, self))

    @cached_property
    def derived(self):
        """H', as a frozenset."""
        return self.ambient.derived_of(self.generators)

    @cached_property
    def abelianization(self):
        """(H/H', projection, generator lifts), as G.abelianization()."""
        return self.ambient.quotient_structure(self.elements, self.derived)

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
    hyperplane functionals by normalized coefficient vector.  The lattice
    is computed once per group; each call returns a fresh list."""
    if G._index_p_subgroups is None:
        p = G.p
        A, proj, _ = G.abelianization()
        r = A.rank(p)
        if r < 1:
            raise PresentationError("G/G' must have rank >= 1")
        images = [(x, tuple(c % p for c in proj(x))) for x in G.elements()]
        subs = []
        for v in normalized_lines(p, r):  # r = A.ngens for a p-group
            # the line through v is the kernel of the functional (v2, -v1)
            phi = (v[1], -v[0]) if r == 2 else v
            elems = [x for x, im in images
                     if sum(a * b for a, b in zip(phi, im)) % p == 0]
            subs.append(SubgroupDescriptor.from_elements(G, elems))
        G._index_p_subgroups = tuple(subs)
    return list(G._index_p_subgroups)


def schreier_transversal(G: PcGroup, H: SubgroupDescriptor):
    """Canonical right-coset representatives of H in G by breadth-first
    search over H t g, starting at the identity coset, generators in order;
    a coset H x is named by H.coset_label[x], its least element.  Returns
    the transversal as a list, sorted by coset label; the identity is
    first."""
    label = H.coset_label
    ident = G.identity
    gens = G.generators()
    trans = {label[ident]: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                u = G.mult(t, g)
                key = label[u]
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
    keys = {H.coset_label.get(t) for t in transversal}
    if len(transversal) != H.index or len(keys) != H.index or None in keys:
        raise PresentationError("not a transversal")
    return _transfer_product(G, H, transversal)


def _transfer_product(G, H, transversal):
    label = H.coset_label
    A_G, _, gens_G = G.abelianization()
    A_H, proj_H, _ = H.abelianization
    rep_inv = {label[t]: G.inv(t) for t in transversal}
    cols = []
    for g in gens_G:
        total = A_H.zero()
        for t in transversal:
            u = G.mult(t, g)
            # t g = h t2 with t2 the representative of the coset H t g
            c = proj_H(G.mult(u, rep_inv[label[u]]))
            total = tuple(a + b for a, b in zip(total, c))
        cols.append(A_H.reduce(total))
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(A_H.ngens)]
    return Homomorphism(A_G, A_H, matrix)


@dataclass(frozen=True)
class CapitulationEntry:
    subgroup_no: int          # 1-based, canonical line order
    kernel: Subgroup
    code: int | None          # 0 full kernel, 1..p+1 line index, None = flagged

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
