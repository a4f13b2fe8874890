"""Acceptance suite.  Each test covers one release criterion, enforces its
runtime budget, and reports one summary line (printed after the run)."""

import random
import time
from fractions import Fraction

from capkit.abgroup import AbelianGroup, power_hom
from capkit.catalog import load_catalog
from capkit.cli import PatternClass, classify_capitulation_pattern
from capkit.fixtures import PUBLISHED_HEURISTIC_P3, reference_table
from capkit.gmodule import (catalog_relative_data, cycle_decomposition,
                            decompose_module, make_relative_datum,
                            primitive_idempotents)
from capkit.heuristics import (compare_distributions,
                               monte_carlo_rank_distribution,
                               predicted_rank_distribution)
from capkit.pcgroup import (SubgroupDescriptor, schreier_transversal,
                            subgroups_index_p_above_derived, transfer)
from capkit.quadform import (Discriminant, QuadForm, QuadFormError,
                             class_group_structure, class_number,
                             enumerate_reduced, fundamental_discriminants,
                             prime_factors, reduce_form, principal_form,
                             compose, inverse)

import conftest
from test_gmodule import random_c2_module, random_c3_module

_passed = {}


def report(n, budget, t0, description):
    elapsed = time.time() - t0
    assert elapsed < budget, "criterion %d exceeded %ds budget: %.1fs" \
        % (n, budget, elapsed)
    _passed[n] = True
    conftest.acceptance_lines.append(
        "criterion %d: PASS (%.1fs) %s" % (n, elapsed, description))


def test_criterion_1_class_groups_small_discriminants():
    t0 = time.time()
    for dv in fundamental_discriminants(-2000, -3):
        D = Discriminant(dv)
        forms = [f.as_tuple() for f in enumerate_reduced(D)]
        h = len(forms)
        s = class_group_structure(D)
        assert s.order == h == class_number(D)
        prod = 1
        for d in s.invariant_factors:
            prod *= d
        assert prod == h

        index = {f: i for i, f in enumerate(forms)}
        e = reduce_form(principal_form(D), D).as_tuple()
        qf = [QuadForm(*f) for f in forms]
        table = [[index[compose(qf[i], qf[j], D).as_tuple()]
                  for j in range(h)] for i in range(h)]
        ei = index[e]
        for i in range(h):
            assert table[i][ei] == i                       # identity
            assert index[inverse(qf[i], D).as_tuple()] in \
                [j for j in range(h) if table[i][j] == ei]  # inverse
            for j in range(h):
                assert table[i][j] == table[j][i]           # commutativity
        for i in range(h):
            for j in range(h):
                tij = table[i][j]
                for k in range(h):
                    assert table[tij][k] == table[i][table[j][k]]
    report(1, 30, t0, "class group structure and group law, |D| <= 2000")


def test_criterion_2_genus_theory_sample():
    t0 = time.time()
    pool = fundamental_discriminants(-100000, -3)
    sample = random.Random(0).sample(pool, 500)
    for dv in sample:
        s = class_group_structure(Discriminant(dv))
        two_rank = sum(1 for d in s.invariant_factors if d % 2 == 0)
        assert two_rank == len(prime_factors(dv)) - 1, dv
    report(2, 10, t0, "2-rank equals ramified primes minus one, 500 samples")


def _table_rank_conflicts():
    conflicts = []
    for row in reference_table():
        s = class_group_structure(Discriminant(row.discriminant))
        rank = sum(1 for d in s.invariant_factors if d % 5 == 0)
        if rank != 2:
            conflicts.append((row.number, row.discriminant, rank))
    return conflicts


def test_criterion_3_table_discriminants_have_5_rank_2():
    t0 = time.time()
    conflicts = _table_rank_conflicts()
    assert not conflicts, \
        "fixture conflicts (row, D, recomputed rank; table implies 2): %s" \
        % conflicts
    report(3, 60, t0, "all 28 tabulated discriminants have 5-rank 2")


def test_criterion_4_pattern_dichotomy():
    t0 = time.time()
    rows = reference_table()
    kinds = {r.number: classify_capitulation_pattern(r.pattern) for r in rows}
    assert sum(1 for k in kinds.values() if k == PatternClass.ONE_ONE) == 24
    special = sorted(n for n, k in kinds.items()
                     if k == PatternClass.P_CAPITULATION)
    assert special == [13, 18, 19, 24]
    assert not any(k == PatternClass.OTHER for k in kinds.values())
    report(4, 30, t0, "24 rows OneOne, 4 rows PCapitulation, none Other")


def test_criterion_5_transfer_suite():
    t0 = time.time()
    rng = random.Random(11)
    for name, G in load_catalog().items():
        A, proj, _ = G.abelianization()
        if A.rank(G.p) < 1:
            continue
        for H in subgroups_index_p_above_derived(G):
            tm = transfer(G, H)
            # (a) index divides transfer kernel order
            assert tm.kernel().order() % H.index == 0, name
            # (b) inclusion after transfer is the p-th power map
            d = make_relative_datum(G, H)
            assert d.norm.compose(d.lift) == power_hom(d.A_K, G.p), name
            # (d) transversal independence
            T0 = schreier_transversal(G, H)
            hlist = sorted(H.elements)
            for _ in range(10):
                T = [G.mult(rng.choice(hlist), t) for t in T0]
                assert transfer(G, H, transversal=T) == tm, name
        # (c) transfer into the derived subgroup is trivial
        der = SubgroupDescriptor.from_elements(G, G.derived_subgroup())
        tm = transfer(G, der)
        assert tm.is_zero(), name
    report(5, 30, t0,
           "divisibility, power law, principal ideal theorem, transversal "
           "independence over the catalog")


def test_criterion_6_datum_invariants():
    t0 = time.time()
    checked = 0
    for name, G in load_catalog().items():
        if G.abelianization()[0].rank(G.p) < 1:
            continue
        for d in catalog_relative_data(G):
            assert d.check_invariants() == [], name
            checked += 1
    assert checked > 100
    report(6, 60, t0,
           "norm/lift/action identities exact for %d catalog data" % checked)


def test_criterion_7_idempotent_and_cycle_suite():
    t0 = time.time()
    C2 = AbelianGroup((2,))
    rng = random.Random(31)
    for _ in range(100):
        M = random_c2_module(rng, max_order=3 ** 6)
        m = 1
        while 3 ** m < M.module.exponent():
            m += 1
        es = primitive_idempotents(C2, 3, m + 1)
        one = es[0]
        for e in es[1:]:
            one = one + e
        assert one.coefficient(C2.zero()) == 1
        for i, e in enumerate(es):
            assert e * e == e
            for f in es[i + 1:]:
                assert (e * f).is_zero()
        comps = decompose_module(M, es)
        total = 1
        for c in comps:
            total *= c.order()
        assert total == M.module.order()

    from capkit.abgroup import Subgroup
    for _ in range(60):
        M = random_c3_module(rng, max_order=3 ** 5)
        gens = cycle_decomposition(M)
        acc = Subgroup.trivial(M.module)
        total = 1
        for b in gens:
            span = M.orbit_span(b)
            assert span.intersection(acc).order() == 1
            acc = acc.join(span)
            total *= span.order()
        assert acc == Subgroup.full(M.module)
        assert total == M.module.order()
    report(7, 120, t0,
           "decomposition of 100 modules <= 3^6; cycle products for 60 "
           "modules <= 3^5")


def test_criterion_8_heuristic_reproduction():
    t0 = time.time()
    d = predicted_rank_distribution(3, kmax=50)
    got = tuple(round(float(d.mass(2 * k)), 4) for k in (1, 2, 3))
    assert got == (0.8889, 0.0988, 0.0110)
    for k in (1, 2, 3):
        published = PUBLISHED_HEURISTIC_P3[k - 1]
        assert abs(d.mass(2 * k) - published) <= Fraction(15, 10 ** 5)
    assert abs(sum(q for _, q in d.probs) + d.residual() - 1) \
        < Fraction(1, 10 ** 12)
    mc = monte_carlo_rank_distribution(3, 10 ** 5, seed=2026, kmax=50)
    tv = compare_distributions(d, mc)
    assert tv <= Fraction(2, 100), float(tv)
    report(8, 60, t0,
           "closed form (0.8889, 0.0988, 0.0110); Monte Carlo TV %.4f" % tv)


def test_criterion_9_pattern_column_is_fixture_only():
    t0 = time.time()
    # the tabulated pattern column is static fixture data; nothing in the
    # package derives a pattern from a discriminant, and real quadratic
    # input (such as 3299) is rejected outright
    try:
        Discriminant(3299)
        raise AssertionError("positive discriminant accepted")
    except QuadFormError:
        pass
    import capkit.cli
    import capkit.fixtures
    import capkit.quadform
    for mod in (capkit.cli, capkit.fixtures, capkit.quadform):
        for attr in dir(mod):
            obj = getattr(mod, attr)
            if callable(obj) and "pattern" in attr.lower():
                assert attr in ("classify_capitulation_pattern",
                                "PatternClass"), attr
    # the substitute suite is criteria 3 through 6
    for n in (3, 4, 5, 6):
        assert _passed.get(n), "substitute criterion %d did not pass first" % n
    report(9, 30, t0,
           "pattern column and real-quadratic case excluded; substitute "
           "suite (criteria 3-6) green")
