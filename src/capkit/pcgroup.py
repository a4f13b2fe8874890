"""Finite p-groups from consistent polycyclic presentations.

Every generator has relative order p, so the group has order p^n and each
element a unique normal word g1^e1 ... gn^en with 0 <= ei < p, stored as the
exponent tuple (e1, ..., en).  Stored relations:

    power:      gi^p   = tail word in g_{i+1} .. g_n
    commutator: [gj,gi] = tail word in g_{j+1} .. g_n   (i < j)

with [x, y] = x^-1 y^-1 x y, so gj gi = gi gj^gi with gj^gi = gj [gj,gi].
The product u g_k of a normal word and a generator is what collection from
the left on the exponent vector of u gives: it moves the letters of u above
g_k past g_k as their conjugates, raises e_k and replaces g_k^p by its power
tail, so

    u g_k = x . (power tail of g_k, if e_k wraps to 0) . prod_{l>k} (g_l^g_k)^e_l

with x the word u cut after position k and e_k raised by one.  Every letter
on the right lies above k and is one entry of the table of u g_l, l > k, so
PcGroup._build fills the table from g_n down to g_1 by this recurrence: it
terminates, each entry depending on entries at most n generators deep.
Consistency is not assumed: the right multiplications of the normal words
by the generators are checked to satisfy every defining relation, which
proves that the presentation defines a group of order p^n (see
PcGroup._prove_consistency); a PresentationError is raised otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .abgroup import (AbelianGroup, Homomorphism, Subgroup, abelian_structure)


class PresentationError(ValueError):
    pass


def _word_letters(word):
    """Expand ((gen, exp), ...) into single generator letters."""
    out = []
    for g, e in word:
        out.extend([g] * e)
    return out


class PcGroup:
    """Finite p-group with a consistent polycyclic presentation.

    power_tails[i] is the word for g_i^p; conj_tails[(j, i)] (j > i) the word
    for [g_j, g_i], both as tuples of (generator_index, exponent) with
    generator indices 0-based and strictly above i resp. j.  Missing
    commutator entries mean the generators commute.
    """

    def __init__(self, p, ngens, power_tails, conj_tails, name=None):
        self.p = p
        self.n = ngens
        self.name = name
        if isinstance(power_tails, dict):
            for i in power_tails:
                if not 0 <= i < ngens:
                    raise PresentationError("power tail key %r is not a "
                                            "generator index 0..%d"
                                            % (i, ngens - 1))
            power_tails = [power_tails.get(i, ()) for i in range(ngens)]
        self.power_tails = [tuple(power_tails[i]) for i in range(ngens)]
        self.conj_tails = {k: tuple(v) for k, v in conj_tails.items() if v}
        self._validate_tails()
        self._elements = list(itertools.product(range(p), repeat=ngens))
        self._index_p_subgroups = None
        self._build()

    # -- presentation plumbing -------------------------------------------

    def _validate_tails(self):
        for i, tail in enumerate(self.power_tails):
            for g, e in tail:
                if not (i < g < self.n) or not (1 <= e < self.p):
                    raise PresentationError(
                        "power tail of g%d uses invalid letter g%d^%d" % (i + 1, g + 1, e))
        for (j, i), tail in self.conj_tails.items():
            if not (0 <= i < j < self.n):
                raise PresentationError("commutator [g%d,g%d] out of order" % (j + 1, i + 1))
            for g, e in tail:
                if not (j < g < self.n) or not (1 <= e < self.p):
                    raise PresentationError(
                        "commutator tail [g%d,g%d] uses invalid letter" % (j + 1, i + 1))

    def _build(self):
        # The recurrence of the module docstring, one column u -> u g_k at a
        # time from k = n - 1 down to 0.  Each letter of g_k's power tail and
        # of the conjugates g_l^{g_k} = g_l [g_l, g_k], l > k, is one lookup
        # in a finished column, so an entry depends on entries at most n
        # columns deep and the fill terminates.  Normal words are numbered by
        # their place in exponent-vector order, and a column is a list of
        # numbers.  Walking u in that order, u g_k is the entry of u with its
        # last nonzero exponent e_m (m > k) lowered by one, times g_m^{g_k};
        # with no exponent above k it is x, times the power tail if e_k wraps.
        p, n = self.p, self.n
        elements = self._elements
        weight = [p ** (n - 1 - l) for l in range(n)]  # the number of g_l
        last = [-1]  # the position of the last nonzero exponent, per word
        for l in range(n):
            last = [l if e else m for m in last for e in range(p)]
        cols = [None] * n
        for k in reversed(range(n)):
            tail = [cols[g] for g in _word_letters(self.power_tails[k])]
            conj = {l: [cols[g] for g in [l] + _word_letters(
                        self.conj_tails.get((l, k), ()))]
                    for l in range(k + 1, n)}
            col = []
            for i, u in enumerate(elements):
                m = last[i]
                if m > k:
                    v, letters = col[i - weight[m]], conj[m]
                elif u[k] < p - 1:
                    col.append(i + weight[k])
                    continue
                else:
                    v, letters = i - (p - 1) * weight[k], tail
                for c in letters:
                    v = c[v]
                col.append(v)
            cols[k] = col
        # _gen_table[u][g] = u g and _inv_gen_table[u][g] = u g^-1: the only
        # multiplication data, |G| n entries each
        self._gen_table = {u: [elements[c[i]] for c in cols]
                           for i, u in enumerate(elements)}
        self._prove_consistency()
        inverse = {u: [None] * n for u in elements}
        for u, row in self._gen_table.items():
            for g, w in enumerate(row):
                inverse[w][g] = u
        self._inv_gen_table = inverse

    def _prove_consistency(self):
        """Raise PresentationError unless the right multiplications R_i
        (u -> collected u g_i, from _gen_table) satisfy every defining
        relation at every normal word u:  R_i^p = R(power tail of g_i) and
        R_j R_i = R_i R_j R(tail of [g_j, g_i]) for i < j.  Each side is mapped
        over all |G| words at once, one dict per generator: O(|G| n^2) lookups.

        This proves consistency.  By the power relations each R_i is a
        bijection (R_n^p is the identity, R_i^p a product of R_k, k > i), so
        the R_i generate a permutation group Q of the normal words that is a
        quotient of the presented group, whose order is at most p^n because
        collection turns every word into a normal word.  Every prefix of a
        normal word w is normal, so the letters of w carry the empty word to
        w: Q is transitive on p^n words.  Hence Q and the presented group
        have order p^n, Q acts regularly, and u * v = u R(letters of v),
        which is mult(), is the group law."""
        p, n = self.p, self.n
        table = self._gen_table
        columns = [dict(zip(table, col)) for col in zip(*table.values())]

        def images(letters):
            # u R(letters) for every normal word u, in table order
            words = list(table)
            for g in letters:
                words = list(map(columns[g].__getitem__, words))
            return words

        for i in range(n):
            if images([i] * p) != images(_word_letters(self.power_tails[i])):
                raise PresentationError("presentation inconsistent: power "
                                        "relation of g%d fails" % (i + 1))
            for j in range(i + 1, n):
                tail = _word_letters(self.conj_tails.get((j, i), ()))
                if images([j, i]) != images([i, j] + tail):
                    raise PresentationError(
                        "presentation inconsistent: commutator relation "
                        "[g%d,g%d] fails" % (j + 1, i + 1))

    def _gen_vec(self, i):
        return tuple(1 if j == i else 0 for j in range(self.n))

    # -- group operations -------------------------------------------------

    @property
    def identity(self):
        return (0,) * self.n

    @property
    def order(self):
        return self.p ** self.n

    def elements(self):
        return list(self._elements)

    def generators(self):
        return [self._gen_vec(i) for i in range(self.n)]

    def mult(self, u, v):
        """u v: the letters of v applied to u, at most n(p-1) lookups."""
        table = self._gen_table
        for g, e in enumerate(v):
            for _ in range(e):
                u = table[u][g]
        return u

    def inv(self, u):
        """u^-1: the letters of u undone in reverse order."""
        table = self._inv_gen_table
        w = self.identity
        for g in range(self.n - 1, -1, -1):
            for _ in range(u[g]):
                w = table[w][g]
        return w

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
        """Normal form of a word given as ((gen_index, exponent), ...);
        exponents may be any integers."""
        w = self.identity
        for g, e in word:
            if not 0 <= g < self.n:
                raise PresentationError("letter g%d out of range" % (g + 1))
            w = self.mult(w, self.power(self._gen_vec(g), e))
        return w

    # -- subgroup machinery ------------------------------------------------

    def closure(self, gens):
        """Subgroup generated by the given elements, as a frozenset."""
        gens = list(gens)
        return self._grow(frozenset({self.identity}), gens, gens)

    def _grow(self, sub, gens, new):
        """Subgroup generated by gens, given the subgroup sub generated by
        the gens not in new: walks only sub*new outside sub and its reach."""
        seen = set(sub)
        frontier, step = list(sub), new
        while frontier:
            nxt = []
            for x in frontier:
                for g in step:
                    y = self.mult(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier, step = nxt, gens
        return frozenset(seen)

    @cached_property
    def as_subgroup(self):
        """G as a SubgroupDescriptor of itself: G' and G/G' are its cached
        derived and abelianization, computed as for any subgroup."""
        return SubgroupDescriptor(self, tuple(self.generators()),
                                  frozenset(self._elements), 1)

    def derived_subgroup(self):
        return self.as_subgroup.derived

    def derived_of(self, gens):
        """Derived subgroup of the subgroup H generated by gens: the normal
        closure in H of the commutators [a, b], a, b in gens."""
        gens = list(gens)
        normal_gens, closed = [], frozenset({self.identity})
        pending = [self.commutator(a, b) for a in gens for b in gens]
        while pending:
            x = pending.pop()
            if x not in closed:
                normal_gens.append(x)
                closed = self._grow(closed, normal_gens, [x])
                pending.extend(self.conjugate(x, a) for a in gens)
        return closed

    def is_metabelian(self):
        der = SubgroupDescriptor.from_elements(self, self.derived_subgroup())
        return all(self.mult(x, y) == self.mult(y, x)
                   for x in der.generators for y in der.generators)

    def center_size(self):
        gens = self.generators()
        return sum(1 for z in self._elements
                   if all(self.mult(z, g) == self.mult(g, z) for g in gens))

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
        coords = {r: res.coords(r) for r in reps}  # proj is called per element

        def proj(x):
            return coords[rep[x]]

        return res.group, proj, res.generators

    def coset_labels(self, elements, subgroup):
        """{x: least element of the right coset subgroup x} for every x in
        elements, a union of right cosets of subgroup.  Walking elements in
        ascending order, the first unlabelled x of a coset is its least
        element; it labels the whole coset, one product per element."""
        label = {}
        for x in sorted(elements):
            if x not in label:
                for h in subgroup:
                    label[self.mult(h, x)] = x
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

    def is_normal(self):
        G = self.ambient
        return all(G.conjugate(x, t) in self.elements
                   for x in self.generators for t in G.generators())


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
        if len(subs) != (p ** r - 1) // (p - 1):
            raise PresentationError("wrong number of index-p subgroups above G'")
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
    trans = {label[ident]: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for t in frontier:
            for g in G.generators():
                u = G.mult(t, g)
                key = label[u]
                if key not in trans:
                    trans[key] = u
                    nxt.append(u)
        frontier = nxt
    if len(trans) != H.index:
        raise PresentationError("transversal size differs from the index")
    return [trans[k] for k in sorted(trans)]


@dataclass(frozen=True)
class TransferMap:
    """The transfer (Verlagerung) G/G' -> H/H' as an explicit Homomorphism.
    The projection H -> H/H' and the lifts of its generators are
    subgroup.abelianization."""
    group: PcGroup = field(compare=False)
    subgroup: SubgroupDescriptor = field(compare=False)
    source: AbelianGroup
    target: AbelianGroup
    hom: Homomorphism

    def kernel(self):
        return self.hom.kernel()


def transfer(G: PcGroup, H: SubgroupDescriptor, transversal=None) -> TransferMap:
    """Transfer map computed by the transversal product formula
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
    return TransferMap(G, H, A_G, A_H, Homomorphism(A_G, A_H, matrix))


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
    if A.ngens != 2:
        raise PresentationError("line subgroups need an abelian group of rank 2")
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
