"""Packaged group catalog: parser behavior and isomorphism-level sanity of
the shipped presentations, via invariants computed from the raw
multiplication only (element order statistics, abelianization, derived
subgroup size, center structure, conjugacy class count)."""

import os
import re
import subprocess
import sys
from collections import Counter

import pytest

import capkit
from capkit.abgroup import abelian_structure
from capkit.catalog import CatalogError, get_group, load_catalog, parse_catalog
from capkit.pcgroup import PresentationError
from pgroup_oracles import derived_closure, members


def fingerprint(G):
    orders = Counter(G.element_order(x) for x in G.elements())
    A = G.abelianization()[0].invariant_factors
    der = len(derived_closure(G, G.generators()))
    center = [z for z in G.elements()
              if all(G.mult(z, x) == G.mult(x, z) for x in G.elements())]
    zstruct = abelian_structure(center, G.mult, G.identity).group.invariant_factors
    classes = len({frozenset(G.conjugate(x, t) for t in G.elements())
                   for x in G.elements()})
    return (tuple(sorted(orders.items())), A, der, zstruct, classes)


class TestParser:
    def test_parse_single_block(self):
        groups = parse_catalog("group X prime 3 ngens 2\ng1^3 = g2\ng2^3 = 1\n")
        assert list(groups) == ["X"]
        assert groups["X"].order == 9
        assert groups["X"].element_order(groups["X"].collect(((0, 1),))) == 9

    def test_power_exponent_shorthand(self):
        a = parse_catalog("group X prime 5 ngens 1\ng1^p = 1\n")
        b = parse_catalog("group X prime 5 ngens 1\ng1^5 = 1\n")
        assert a["X"].order == b["X"].order == 5

    def test_rejects_malformed_input(self):
        for text in [
            "group X prime 3\ng1^3 = 1\n",              # truncated header
            "group X prime 3 ngens 1\ng1^2 = 1\n",      # wrong exponent
            "group X prime 3 ngens 1\ng2^3 = 1\n",      # unknown generator
            "group X prime 3 ngens 2\n[g1,g2] = 1\n",   # commutator order
            "group X prime 3 ngens 1\ng1^3 = g1^4\n",   # exponent range
            "group X prime 3 ngens 1\nnonsense\n",
            "group X prime 3 ngens 0\n\ngroup X prime 3 ngens 0\n",  # dup
        ]:
            with pytest.raises(CatalogError):
                parse_catalog(text)

    @pytest.mark.parametrize("relations, line", [
        ("g1^3 = g2\ng1^3 = 1", "g1^3 = 1"),        # would load as C3 x C3
        ("g1^p = g2\ng1^3 = g2", "g1^3 = g2"),      # shorthand, same tail
        ("[g2,g1] = 1\n[g2,g1] = 1", "[g2,g1] = 1"),
        ("[g2,g1] = 1\ng2^3 = 1\n[g2,g1] = g2", "[g2,g1] = g2"),
    ])
    def test_rejects_duplicate_relations(self, relations, line):
        text = "group X prime 3 ngens 2\n%s\n" % relations
        with pytest.raises(CatalogError, match="duplicate .* '%s'$"
                           % re.escape(line)):
            parse_catalog(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\n\ngroup X prime 2 ngens 1\ng1^2 = 1\n\n# tail\n"
        assert list(parse_catalog(text)) == ["X"]

    @pytest.mark.parametrize("block, message", [
        ("group X prime 4 ngens 1\ng1^4 = 1", r"group X: p = 4 is not a prime"),
        ("group Y prime 3 ngens 4\ng1^3 = g3\n[g3,g2] = g4",
         r"group Y: presentation inconsistent: overlap .* fails"),
        # word letters are range-checked by PcGroup alone
        ("group Z prime 3 ngens 2\ng1^3 = g3",
         r"group Z: power tail of g1 uses invalid letter g3\^1"),
        ("group W prime 3 ngens 2\ng1^3 = g2^3",
         r"group W: power tail of g1 uses invalid letter g2\^3"),
    ])
    def test_rejected_block_is_named(self, block, message):
        # PcGroup's error used to escape without the name of the block
        text = "group A prime 3 ngens 1\ng1^3 = 1\n\n%s\n" % block
        with pytest.raises(CatalogError, match="^%s$" % message) as info:
            parse_catalog(text)
        assert isinstance(info.value.__cause__, PresentationError)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(CatalogError, match="unknown catalog group"):
            get_group("NoSuchGroup")


class TestShippedCatalog:
    def test_loads_and_caches(self):
        cat = load_catalog()
        assert load_catalog() is cat
        assert len(cat) == 36

    def test_load_imports_no_resource_machinery(self):
        # without site (-S) nothing but capkit can have imported them
        src = os.path.dirname(os.path.dirname(capkit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys\n"
                "import capkit.cli\n"
                "from capkit.catalog import load_catalog\n"
                "print(len(load_catalog()))\n"
                "print(*sorted(m for m in ('importlib.resources', 'pathlib',"
                " 'zipfile', 'tempfile') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                             capture_output=True, text=True,
                             check=True).stdout.split("\n")
        assert out[0] == "36"
        assert out[1] == "", out[1]

    def test_orders_and_primes(self):
        expectations = {
            "C1": (3, 1), "C3": (3, 3), "C9": (3, 9), "C27": (3, 27),
            "H27": (3, 27), "M27": (3, 27), "C81": (3, 81),
            "C3wrC3": (3, 81), "M243": (3, 243), "C5xC5": (5, 25),
            "E125exp5": (5, 125), "E125exp25": (5, 125),
            "Q8": (2, 8), "D4": (2, 8),
        }
        for name, (p, order) in expectations.items():
            G = get_group(name)
            assert (G.p, G.order) == (p, order), name

    def test_all_groups_metabelian(self):
        # oracle: every two elements of G' commute
        for name, G in load_catalog().items():
            der = members(G.derived_subgroup())
            assert all(G.mult(x, y) == G.mult(y, x)
                       for x in der for y in der), name

    def test_exponents_distinguish_extraspecial_pairs(self):
        assert max(get_group("H27").element_order(x)
                   for x in get_group("H27").elements()) == 3
        assert max(get_group("M27").element_order(x)
                   for x in get_group("M27").elements()) == 9
        assert max(get_group("E125exp5").element_order(x)
                   for x in get_group("E125exp5").elements()) == 5
        assert max(get_group("E125exp25").element_order(x)
                   for x in get_group("E125exp25").elements()) == 25

    def test_order_81_entries_are_pairwise_nonisomorphic(self):
        # all fifteen isomorphism types of order 81 are present exactly once
        names = [n for n, G in load_catalog().items()
                 if G.p == 3 and G.order == 81]
        assert len(names) == 15
        prints = {}
        for n in names:
            fp = fingerprint(get_group(n))
            assert fp not in prints, (n, prints.get(fp))
            prints[fp] = n

    def test_order_27_entries_are_pairwise_nonisomorphic(self):
        names = [n for n, G in load_catalog().items()
                 if G.p == 3 and G.order == 27]
        assert len(names) == 5
        assert len({fingerprint(get_group(n)) for n in names}) == 5

    def test_order_8_entries_are_pairwise_nonisomorphic(self):
        names = [n for n, G in load_catalog().items()
                 if G.p == 2 and G.order == 8]
        assert len({fingerprint(get_group(n)) for n in names}) == len(names)
