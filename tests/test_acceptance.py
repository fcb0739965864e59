"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic; assertions are equalities with no
tolerances.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import random
from math import comb

import pytest

import edgeposets as ep
from edgeposets.actions import CCT_METHODS, action_on_edges
from edgeposets.catalog import (
    ELEMENTARY_ABELIAN_2,
    fig1_edge_expected,
    fig1_poset,
    fig2_poset,
    small_group_tables,
    tree8,
    tree10,
)
from edgeposets.cli import sweep_records
from edgeposets.perms import Permutation

from conftest import random_graded_poset


def report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def battery():
    """Induced boolean-algebra actions spanning every named family at small n,
    wreath and direct products, left-regular groups of order <= 8, and the
    non-CCT dihedral case on nine points."""
    groups = [
        ("trivial:3", ep.trivial(3)),
        ("symmetric:2", ep.symmetric(2)),
        ("symmetric:3", ep.symmetric(3)),
        ("symmetric:4", ep.symmetric(4)),
        ("cyclic:3", ep.cyclic(3)),
        ("cyclic:4", ep.cyclic(4)),
        ("cyclic:5", ep.cyclic(5)),
        ("cyclic:6", ep.cyclic(6)),
        ("dihedral:3", ep.dihedral(3)),
        ("dihedral:4", ep.dihedral(4)),
        ("dihedral:5", ep.dihedral(5)),
        ("dihedral:6", ep.dihedral(6)),
        ("hyperoctahedral:2", ep.hyperoctahedral(2)),
        ("hyperoctahedral:3", ep.hyperoctahedral(3)),
        ("product:s2xs2", ep.direct_product(ep.symmetric(2), ep.symmetric(2))),
        ("product:c3xs2", ep.direct_product(ep.cyclic(3), ep.symmetric(2))),
        ("wreath:s2wrs2", ep.wreath(ep.symmetric(2), ep.symmetric(2))),
        ("wreath:s3wrs2", ep.wreath(ep.symmetric(3), ep.symmetric(2))),
        ("wreath:s2wrs3", ep.wreath(ep.symmetric(2), ep.symmetric(3))),
        ("dihedral:9", ep.dihedral(9)),
        ("dihedral:8", ep.dihedral(8)),
    ]
    for name, table in small_group_tables().items():
        if 2 <= len(table) <= 8:
            groups.append((f"left-regular:{name}", ep.left_regular(table)))
    return [(label, ep.induced_bn_action(G)) for label, G in groups]


def test_01_fig1_reproduction():
    P = fig1_poset()
    e = ep.edge_poset(P)
    iso, _ = ep.is_isomorphic(e.poset, fig1_edge_expected())
    ok = (
        iso
        and e.poset.n == 9
        and len(e.poset.covers) == 10
        and not ep.naive_edge_relation_is_graded(P)
    )
    report(1, "fig1-reproduction", ok)


def test_02_fig2_reproduction():
    P = fig2_poset()
    E = ep.edge_poset(P).poset
    ok = (
        ep.is_self_dual(P)
        and ep.is_unitary_peck(P)
        and E.rank_vector == (3, 2, 3)
        and not ep.is_peck(E)
    )
    report(2, "fig2-reproduction", ok)


def test_03_h_decomposition():
    ok = True
    for n in range(1, 8):
        f = ep.h_bn_decomposition(ep.h_poset(ep.boolean_algebra(n)))
        half = 1 << (n - 1)
        ok = ok and f.is_isomorphism() and f.target.n == n * half
        vec = ep.boolean_algebra(n - 1).rank_vector
        ok = ok and f.target.rank_vector == tuple(n * v for v in vec)
    report(3, "h-decomposition", ok)


def test_04_cct_equivalence(battery):
    assert len(battery) >= 20
    ok = True
    saw = {True: 0, False: 0}
    for label, A in battery:
        verdicts = [ep.is_cct(A, m).ok for m in CCT_METHODS]
        agree = len(set(verdicts)) == 1
        if not agree:
            print(f"  methods disagree on {label}: {verdicts}")
        ok = ok and agree
        saw[verdicts[0]] += 1
    ok = ok and saw[True] > 0 and saw[False] > 0
    report(4, "cct-equivalence", ok)


def test_05_building_blocks_and_dihedral_classification():
    ok = True
    for n in range(1, 7):
        ok = ok and ep.is_cct(ep.induced_bn_action(ep.symmetric(n))).ok
    for p in (2, 3, 5, 7):
        ok = ok and ep.is_cct(ep.induced_bn_action(ep.dihedral(p))).ok
    for p in (2, 3, 5):
        ok = ok and ep.is_cct(ep.induced_bn_action(ep.dihedral(2 * p))).ok
    ok = ok and ep.is_cct(ep.induced_bn_action(ep.dihedral(8))).ok
    res9 = ep.is_cct(ep.induced_bn_action(ep.dihedral(9)))
    res12 = ep.is_cct(ep.induced_bn_action(ep.dihedral(12)))
    ok = ok and not res9.ok and not res12.ok
    # the nine-point witness is the explicit asymmetric triple
    ok = ok and res9.witness == (0b1001011, 0b1011001, 0b1011011)
    report(5, "building-blocks-dihedral", ok)


def test_06_z2k_and_left_regular():
    ok = True
    embeddings = {
        1: [["(1 2)"], ["(1 2)(3 4)"], ["(1 2)(3 4)(5 6)"]],
        2: [
            ["(1 2)", "(3 4)"],
            ["(1 2)(3 4)", "(1 3)(2 4)"],
            ["(1 2)(3 4)", "(5 6)"],
        ],
        3: [
            ["(1 2)", "(3 4)", "(5 6)"],
            ["(1 2)(3 4)", "(1 3)(2 4)", "(5 6)"],
            ["(1 2)(3 4)(5 6)(7 8)", "(1 3)(2 4)(5 7)(6 8)", "(1 5)(2 6)(3 7)(4 8)"],
        ],
    }
    for k, cases in embeddings.items():
        for texts in cases:
            degree = max(Permutation.from_cycles(t).degree for t in texts)
            G = ep.elementary_abelian_2(
                [Permutation.from_cycles(t, degree) for t in texts], degree
            )
            ok = ok and ep.is_cct(ep.induced_bn_action(G)).ok
    for name, table in small_group_tables().items():
        if len(table) < 2:
            continue
        verdict = ep.is_cct(ep.induced_bn_action(ep.left_regular(table))).ok
        ok = ok and verdict == (name in ELEMENTARY_ABELIAN_2)
    report(6, "z2k-left-regular", ok)


def test_07_trees():
    T8, T10 = tree8(), tree10()
    G8 = ep.tree_automorphisms(T8)
    G10 = ep.tree_automorphisms(T10)
    W = ep.wreath(ep.wreath(ep.symmetric(2), ep.symmetric(2)), ep.symmetric(2))
    ok = G8.order == 128 and G8.element_set == W.element_set and G10.order == 576
    for G in (G8, G10):
        A = ep.induced_bn_action(G)
        ok = ok and ep.is_cct(A).ok
        quotient_edge = ep.edge_poset(ep.quotient(A).poset).poset
        ok = ok and ep.is_peck(quotient_edge)
    report(7, "rooted-trees", ok)


def test_08_cyclic_rank_identity():
    ok = True
    for n in range(3, 9):
        eact, _ = action_on_edges(ep.induced_bn_action(ep.cyclic(n)), "E")
        vec = ep.quotient(eact).poset.rank_vector
        ok = ok and vec == tuple(comb(n - 1, i) for i in range(n))
    for n in range(1, 9):
        for G in (ep.cyclic(n), ep.dihedral(n)):
            E = ep.edge_poset(ep.quotient(ep.induced_bn_action(G)).poset).poset
            sym, uni = ep.rank_profile(E)
            ok = ok and sym and uni
    report(8, "cyclic-rank-identity", ok)


def test_09_box_partition_bridge():
    ok = True
    for l, m in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)):
        G = ep.wreath(ep.symmetric(m), ep.symmetric(l))
        A = ep.induced_bn_action(G)
        quot = ep.quotient(A)
        E = ep.edge_poset(quot.poset).poset
        expected = tuple(ep.p_count(k, l, m, 1) for k in range(1, l * m + 1))
        ok = ok and E.rank_vector == expected
        if (l, m) == (2, 2):
            ok = ok and E.rank_vector == (1, 2, 2, 1)
        # the other side of the identity: E(B_n)/G has the same rank sizes
        eact, _ = action_on_edges(A, "E")
        ok = ok and ep.quotient(eact).poset.rank_vector == expected
        for o in range(quot.poset.n):
            lam = ep.young_representative(quot, o, l, m)
            ok = ok and len(quot.poset.down[o]) == ep.nu(lam)
    for r in (1, 2, 3):
        for l in range(1, 6):
            for m in range(1, 6):
                _, symmetric, unimodal = ep.pak_sequence_check(l, m, r)
                ok = ok and symmetric and unimodal
    report(9, "box-partition-bridge", ok)


def test_10_unitary_peck_small_n():
    ok = True
    for n in range(0, 7):
        ok = ok and ep.is_unitary_peck(ep.boolean_algebra(n))
    for n in range(1, 7):
        ok = ok and ep.is_unitary_peck(ep.h_poset(ep.boolean_algebra(n)).poset)
    for n in range(3, 7):
        ok = ok and ep.is_unitary_peck(ep.edge_poset(ep.boolean_algebra(n)).poset)
    report(10, "unitary-peck-small-n", ok)


def test_11_symmetric_chain_decompositions():
    ok = True
    for n in range(1, 8):
        ok = ok and ep.scd_boolean(n).host.n == 1 << n
        D = ep.scd_h_boolean(ep.h_poset(ep.boolean_algebra(n)))
        ok = ok and D.host.n == n * (1 << (n - 1))
        T = ep.scd_transport(D, ep.h_to_e_bijection(ep.boolean_algebra(n)))
        ok = ok and len(T.chains) == len(D.chains)
    report(11, "symmetric-chain-decompositions", ok)


def test_12_antichain_union_oracle():
    rng = random.Random(0xACCE)
    posets = [random_graded_poset(rng, max_ranks=4, max_width=3) for _ in range(200)]
    posets = [P for P in posets if P.n <= 12]
    assert len(posets) == 200
    fig1, fig2 = fig1_poset(), fig2_poset()
    posets += [
        fig1,
        fig2,
        ep.edge_poset(fig1).poset,
        ep.edge_poset(fig2).poset,
        ep.h_poset(fig1).poset,
        ep.h_poset(fig2).poset,
        ep.boolean_algebra(2),
        ep.boolean_algebra(3),
        ep.chain(5),
        ep.antichain(5),
        ep.GradedPoset([0, 1, 1, 2], [(0, 1), (0, 2), (1, 3), (2, 3)]),
    ]
    ok = True
    for P in posets:
        for k in range(1, P.max_rank + 3):
            flow = ep.max_k_antichain_union(P, k)  # self-checks below threshold
            ok = ok and flow == ep.brute_force_k_antichain_union(P, k)
    report(12, "antichain-union-oracle", ok)


def test_13_conjecture_sweep():
    ok = True
    expected_classes = {3: 4, 4: 11, 5: 19}
    for n in (3, 4, 5):
        records = sweep_records(n)  # raises on any internal-consistency violation
        ok = ok and len(records) == expected_classes[n]
        for rec in records:
            ok = ok and rec.peck_quotient_edge["peck"]
            ok = ok and len(set(rec.cct_methods.values())) == 1
            if rec.cct:
                ok = ok and rec.peck_quotient_edge["peck"]
    report(13, "conjecture-sweep", ok)


def test_14_duality_suite(battery):
    ok = True
    for n in sorted({A.group.degree for _, A in battery}):
        ok = ok and ep.edge_dual_witness(ep.boolean_algebra(n)).is_isomorphism()
    for label, A in battery:
        w = ep.complement_self_duality(A)
        good = w.quotient_edge.is_isomorphism() and w.edge_quotient.is_isomorphism()
        if not good:
            print(f"  self-duality failed for {label}")
        ok = ok and good
    assert any(label == "dihedral:9" for label, _ in battery)
    report(14, "duality-suite", ok)
