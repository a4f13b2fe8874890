"""Parser and loader for the packaged p-group catalog.

File grammar (documented in full at the top of data/catalog.txt):

    group <name> prime <p> ngens <n>
    g<i>^<p> = <word>            power relation (g<i>^p also accepted)
    [g<j>,g<i>] = <word>         commutator relation, j > i
    <word> ::= 1 | factor (* factor)*, factor ::= g<k> | g<k>^<e>

Blocks are blank-line terminated; '#' starts a comment line.  A block
states each power and each commutator relation at most once.
"""

from __future__ import annotations

import re
from importlib import resources

from .pcgroup import PcGroup, PresentationError

_HEADER = re.compile(r"^group\s+(\S+)\s+prime\s+(\d+)\s+ngens\s+(\d+)$")
_POWER = re.compile(r"^g(\d+)\^(p|\d+)\s*=\s*(.+)$")
_COMM = re.compile(r"^\[g(\d+),g(\d+)\]\s*=\s*(.+)$")
_FACTOR = re.compile(r"^g(\d+)(?:\^(\d+))?$")


class CatalogError(ValueError):
    pass


def _parse_word(text, p, ngens):
    text = text.strip()
    if text == "1":
        return ()
    word = []
    for part in text.split("*"):
        m = _FACTOR.match(part.strip())
        if not m:
            raise CatalogError("bad word factor %r" % part)
        g = int(m.group(1))
        e = int(m.group(2) or 1)
        if not (1 <= g <= ngens) or not (1 <= e < p):
            raise CatalogError("word factor %r out of range" % part)
        word.append((g - 1, e))
    return tuple(word)


def parse_catalog(text):
    """Parse catalog text into an ordered dict name -> PcGroup."""
    groups = {}
    block = []

    def flush(lines):
        if not lines:
            return
        m = _HEADER.match(lines[0])
        if not m:
            raise CatalogError("bad header line %r" % lines[0])
        name, p, n = m.group(1), int(m.group(2)), int(m.group(3))
        power_tails = {}
        conj_tails = {}
        for line in lines[1:]:
            pm = _POWER.match(line)
            if pm:
                i = int(pm.group(1))
                exp = pm.group(2)
                if exp != "p" and int(exp) != p:
                    raise CatalogError("power relation %r must use exponent %d" % (line, p))
                if not 1 <= i <= n:
                    raise CatalogError("generator g%d out of range" % i)
                if i - 1 in power_tails:
                    raise CatalogError("duplicate power relation %r" % line)
                power_tails[i - 1] = _parse_word(pm.group(3), p, n)
                continue
            cm = _COMM.match(line)
            if cm:
                j, i = int(cm.group(1)), int(cm.group(2))
                if not (1 <= i < j <= n):
                    raise CatalogError("commutator relation %r out of order" % line)
                if (j - 1, i - 1) in conj_tails:
                    raise CatalogError("duplicate commutator relation %r" % line)
                conj_tails[(j - 1, i - 1)] = _parse_word(cm.group(3), p, n)
                continue
            raise CatalogError("unparsable relation line %r" % line)
        if name in groups:
            raise CatalogError("duplicate group name %r" % name)
        try:
            groups[name] = PcGroup(p, n, power_tails, conj_tails, name=name)
        except PresentationError as exc:
            raise CatalogError("group %s: %s" % (name, exc)) from exc

    for raw in text.splitlines() + [""]:
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            flush(block)
            block = []
        else:
            block.append(line)
    return groups


_cache = None


def load_catalog():
    """All shipped catalog groups, parsed and consistency-checked."""
    global _cache
    if _cache is None:
        text = resources.files("capkit.data").joinpath("catalog.txt").read_text("utf-8")
        _cache = parse_catalog(text)
    return _cache


def get_group(name):
    cat = load_catalog()
    if name not in cat:
        raise CatalogError("unknown catalog group %r (known: %s)"
                           % (name, ", ".join(sorted(cat))))
    return cat[name]
