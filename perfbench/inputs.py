"""Seeded input generators and independent oracles for the capkit benchmark.

Everything here is computed with the standard library only, without
importing capkit, so that the checks made with it do not share code with the
program under test.  One integer seed fixes every generated input: the same
seed gives byte-identical inputs.
"""

from __future__ import annotations

import hashlib
import random
import re
from math import gcd, isqrt, prod

# Lower end of the paper's table range of discriminants (-85099..-12451).
TABLE_LO = -85099

# scan: a window of SCAN_COUNT consecutive fundamental discriminants whose
# upper end lies in [SCAN_BAND_LO, SCAN_BAND_HI].  The band is narrow so that
# the O(|D|) enumeration costs about the same for every seed; the whole
# window stays inside the table range.
SCAN_COUNT = 600
SCAN_BAND_LO, SCAN_BAND_HI = -83000, -80000

# store-read: one record per (fundamental D, prime) with STORE_LO <= D <= -3.
STORE_LO = -200000
STORE_PRIMES = (3, 5, 7)
STORE_CORRUPT = 6
STORE_COMMENTS = 4
STORE_TIMESTAMP = "2026-01-01T00:00:%02d+00:00"

# catalog-tkt: direct products G x C_{p^k}, written in the catalog grammar.
# Every member of PRODUCT_POOL has order 3^5 and G/G' of rank 3, so every
# pick costs about the same.
PRODUCT_POOL = (("M81", 1), ("C9sC9", 1), ("G81c2", 1), ("C3wrC3", 1),
                ("MC81a", 1), ("MC81b", 1), ("MC81c", 1),
                ("H27", 2), ("M27", 2))
PRODUCT_PICKS = 1


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _squarefree_flags(a, b):
    """flags[n - a] is True iff n is squarefree, for 1 <= a <= n <= b,
    by sieving out multiples of p^2."""
    flags = [True] * (b - a + 1)
    for q in range(2, isqrt(b) + 1):
        sq = q * q
        for m in range(-(-a // sq) * sq, b + 1, sq):
            flags[m - a] = False
    return flags


def fundamental_discriminants(lo, hi):
    """Fundamental discriminants D with lo <= D <= hi < 0, ascending."""
    a, b = max(1, -hi), -lo
    flags = _squarefree_flags(1, b)
    out = []
    for n in range(a, b + 1):
        d = -n
        if d % 4 == 1:
            if flags[n - 1]:
                out.append(d)
        elif d % 4 == 0:
            m = n // 4
            if m % 4 in (1, 2) and flags[m - 1]:
                out.append(d)
    out.reverse()
    return out


def class_number(D):
    """h(D) by counting primitive reduced forms (a, b, c), enumerated by b
    and then by the divisors a of (b^2 - D)/4."""
    count = 0
    bmax = isqrt(-D // 3)
    for b in range(D % 2, bmax + 1, 2):
        q = (b * b - D) // 4
        for a in range(max(b, 1), isqrt(q) + 1):
            if q % a:
                continue
            c = q // a
            if gcd(gcd(a, b), c) != 1:
                continue
            # (a, b, c) and (a, -b, c) are both reduced unless b = 0,
            # b = a or a = c
            count += 1 if b == 0 or b == a or a == c else 2
    return count


def payload_digest(payloads):
    """sha256 of a set of (D, h, invariant factors, p, rank) payloads."""
    lines = sorted("%d|%d|%s|%d|%d" % (d, h, ",".join(map(str, invs)), p, r)
                   for d, h, invs, p, r in payloads)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def scan_window(seed):
    """(lo, hi, discriminants): SCAN_COUNT consecutive fundamental
    discriminants, the largest of which is at most a seeded point of the
    band."""
    rng = random.Random("scan:%d" % seed)
    start = rng.randint(SCAN_BAND_LO, SCAN_BAND_HI)
    cands = fundamental_discriminants(start - 4 * SCAN_COUNT, start)
    window = cands[-SCAN_COUNT:]
    lo, hi = window[0], window[-1]
    if lo < TABLE_LO:
        raise ValueError("scan window leaves the table range")
    return lo, hi, window


def oracle_sample(seed, discriminants, k=8):
    """k discriminants of the window whose class number the benchmark
    recomputes on its own."""
    rng = random.Random("sample:%d" % seed)
    return sorted(rng.sample(discriminants, k))


# ---------------------------------------------------------------------------
# store-read
# ---------------------------------------------------------------------------

_SMALL = (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 10, 15)


def _invariants(rng):
    """A random divisor chain d1 | d2, at most two factors."""
    a = rng.choice(_SMALL)
    top = a * rng.randint(1, 120)
    if a == 1:
        return (top,) if top > 1 else ()
    return (a, top)


_CORRUPT_KINDS = (
    "not a record",
    "{d}\t{h}\t{invs}\t{p}\t{r}",                      # 5 fields
    "{d}\t{h}\t{invs}\t{p}\t{r}\t{ts}\textra",         # 7 fields
    "{d}\tseven\t{invs}\t{p}\t{r}\t{ts}",              # non-integer h
    "{d}\t{h2}\t{invs}\t{p}\t{r}\t{ts}",               # product mismatch
    "{pd}\t{h}\t{invs}\t{p}\t{r}\t{ts}",               # D >= 0
)


def synth_store(seed):
    """(text, tally, corrupt_lines).

    text: a store with one valid record per (fundamental D, prime) for D in
    [STORE_LO, -3] and each prime of STORE_PRIMES, STORE_CORRUPT corrupt
    lines and STORE_COMMENTS '#' lines at seeded places, no duplicates.
    tally: {(p, rank): count} over the valid records.  corrupt_lines: the
    1-based line numbers of the corrupt lines."""
    rng = random.Random("store:%d" % seed)
    discs = fundamental_discriminants(STORE_LO, -3)
    groups = {d: _invariants(rng) for d in discs}
    records = []
    tally = {}
    for p in STORE_PRIMES:
        for d in discs:
            invs = groups[d]
            h = prod(invs)
            r = sum(1 for x in invs if x % p == 0)
            tally[(p, r)] = tally.get((p, r), 0) + 1
            records.append("%d\t%d\t%s\t%d\t%d\t%s"
                           % (d, h, ",".join(map(str, invs)) or "1", p, r,
                              STORE_TIMESTAMP % (d % 60)))
    rng.shuffle(records)
    extras = [("corrupt", _CORRUPT_KINDS[i % len(_CORRUPT_KINDS)])
              for i in range(STORE_CORRUPT)]
    extras += [("comment", "# synthetic store, seed %d, part %d" % (seed, i))
               for i in range(STORE_COMMENTS)]
    slots = sorted(rng.sample(range(len(records)), len(extras)))
    rng.shuffle(extras)
    lines = ["# capkit synthetic store for the benchmark, seed %d" % seed]
    corrupt_lines = []
    k = 0
    for i, rec in enumerate(records):
        while k < len(extras) and slots[k] == i:
            kind, tmpl = extras[k]
            if kind == "corrupt":
                d = rng.choice(discs)
                invs = groups[d] or (1,)
                lines.append(tmpl.format(
                    d=d, pd=-d, h=prod(invs), h2=prod(invs) + 1,
                    invs=",".join(map(str, invs)), p=5, r=0,
                    ts=STORE_TIMESTAMP % 0))
                corrupt_lines.append(len(lines))
            else:
                lines.append(tmpl)
            k += 1
        lines.append(rec)
    return "\n".join(lines) + "\n", tally, corrupt_lines


# ---------------------------------------------------------------------------
# catalog-tkt
# ---------------------------------------------------------------------------

_HEADER = re.compile(r"^group\s+(\S+)\s+prime\s+(\d+)\s+ngens\s+(\d+)$")


def catalog_blocks(text):
    """{name: (p, ngens, relation lines)} from catalog text."""
    blocks = {}
    cur = None
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            cur = None
            continue
        m = _HEADER.match(line)
        if m:
            cur = m.group(1)
            blocks[cur] = (int(m.group(2)), int(m.group(3)), [])
        elif cur is not None:
            blocks[cur][2].append(line)
    return blocks


def product_name(blocks, name, k):
    return "bench_%sxC%d" % (name, blocks[name][0] ** k)


def direct_product_text(blocks, name, k):
    """G x C_{p^k} in the catalog grammar: G's relations unchanged, the
    cyclic factor on k new generators after G's, commuting with everything.
    Tails only use generators above each relation's subject, so the
    presentation is consistent by construction."""
    p, n, rels = blocks[name]
    lines = ["group %s prime %d ngens %d"
             % (product_name(blocks, name, k), p, n + k)]
    lines += rels
    for j in range(k):
        tail = "g%d" % (n + j + 2) if j + 1 < k else "1"
        lines.append("g%d^%d = %s" % (n + j + 1, p, tail))
    return "\n".join(lines) + "\n"


def products(seed, catalog_text):
    """(picks, text): PRODUCT_PICKS seeded picks of PRODUCT_POOL as
    (product name, base group name, k) triples, and the products as catalog
    text."""
    rng = random.Random("products:%d" % seed)
    chosen = rng.sample(PRODUCT_POOL, PRODUCT_PICKS)
    blocks = catalog_blocks(catalog_text)
    picks = [(product_name(blocks, name, k), name, k) for name, k in chosen]
    text = "\n".join(direct_product_text(blocks, name, k) for name, k in chosen)
    return picks, text
