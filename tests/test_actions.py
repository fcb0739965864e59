import pytest

import edgeposets as ep
from edgeposets import actions
from edgeposets.actions import CCT_METHODS, CCTResult, action_on_edges
from edgeposets.catalog import ELEMENTARY_ABELIAN_2, small_group_tables
from edgeposets.errors import InternalInconsistency, InvalidParams
from edgeposets.perms import Permutation


def element_map_cct_scan(A, upward):
    """The CCT scan over every z with every group element's map, as it stood
    before stabilizers came from Schreier generators: the oracle for is_cct's
    direct and dual methods."""
    P = A.poset
    orbit_of = A.orbit_of
    neighbors = P.up if upward else P.down
    maps = A.element_maps
    name = "dual" if upward else "direct"
    for z in range(P.n):
        adjacent = neighbors[z]
        if len(adjacent) < 2:
            continue
        stab = None
        for i, x in enumerate(adjacent):
            for y in adjacent[i + 1 :]:
                if orbit_of[x] != orbit_of[y]:
                    continue
                if stab is None:
                    stab = [m for m in maps.values() if m[z] == z]
                if not any(m[x] == y for m in stab):
                    witness = (x, y, z)
                    return CCTResult(False, witness, name)
    return CCTResult(True, None, name)


def assert_scans_match_oracle(A):
    for method, upward in (("direct", False), ("dual", True)):
        assert ep.is_cct(A, method) == element_map_cct_scan(A, upward)


def orbit_counts_by_rank(A):
    seen = {}
    for x in range(A.poset.n):
        seen.setdefault(A.poset.ranks[x], set()).add(A.orbit_of[x])
    return tuple(len(seen[r]) for r in sorted(seen))


class TestPosetAction:
    def test_rejects_non_automorphism(self):
        P = ep.chain(2)
        with pytest.raises(InvalidParams):
            ep.PosetAction(ep.symmetric(2), P, [(1, 0)])  # rank-breaking

    def test_rejects_relation_violation(self):
        # C_2 generator sent to a 4-cycle on an antichain: squares to a
        # double transposition, not the identity
        G = ep.PermGroup(2, [Permutation.from_cycles("(1 2)", 2)])
        A = ep.PosetAction(G, ep.antichain(4), [(1, 2, 3, 0)])
        with pytest.raises(InternalInconsistency):
            A.element_maps

    def test_element_maps_cover_group(self):
        A = ep.induced_bn_action(ep.dihedral(4))
        assert len(A.element_maps) == 8

    def test_relation_violation_stops_closure_past_group_order(self, monkeypatch):
        # S_3 with the transposition as a transposition and the 3-cycle as an
        # 8-cycle of an antichain: the diagonal group is 6 * 8! = 241,920
        # tuples, but the closure stops once it exceeds |G|
        sizes = []
        real = actions._tuple_close

        def close(*args, **kwargs):
            closure = real(*args, **kwargs)
            sizes.append(len(closure))
            return closure

        monkeypatch.setattr(actions, "_tuple_close", close)
        G = ep.symmetric(3)
        swap = (1, 0, 2, 3, 4, 5, 6, 7)
        cycle = (1, 2, 3, 4, 5, 6, 7, 0)
        maps = [swap if g.images == (1, 0, 2) else cycle for g in G.generators]
        A = ep.PosetAction(G, ep.antichain(8), maps)
        with pytest.raises(InternalInconsistency):
            A.element_maps
        assert len(sizes) == 1 and sizes[0] <= G.order + 1

    def test_relation_violation_caught_by_cct(self):
        G = ep.PermGroup(2, [Permutation.from_cycles("(1 2)", 2)])
        A = ep.PosetAction(G, ep.antichain(4), [(1, 2, 3, 0)])
        assert A.diagonal_order == 4
        for method in ("direct", "dual"):
            with pytest.raises(InternalInconsistency):
                ep.is_cct(A, method)
        with pytest.raises(InternalInconsistency):
            ep.check_cct_triple(A, 0, 1, 2)

    def test_non_faithful_action_passes(self):
        # the sign of S_3 acting on a 2-element antichain
        G = ep.symmetric(3)
        maps = [(1, 0) if g.images == (1, 0, 2) else (0, 1) for g in G.generators]
        A = ep.PosetAction(G, ep.antichain(2), maps)
        A.check_relations()
        assert A.diagonal_order == 6
        assert ep.is_cct(A, "direct").ok and ep.is_cct(A, "dual").ok
        assert len(A.element_maps) == 6

    @pytest.mark.parametrize(
        "family,n",
        [("symmetric", k) for k in range(1, 9)]
        + [("cyclic", 9), ("dihedral", 10), ("hyperoctahedral", 4)],
    )
    def test_diagonal_order_is_group_order(self, family, n):
        A = ep.induced_bn_action(ep.named_group(family, n))
        assert A.diagonal_order == A.group.order


class TestInducedAction:
    def test_trivial_orbits_singletons(self):
        A = ep.induced_bn_action(ep.trivial(3))
        assert len(set(A.orbit_of)) == 8

    def test_c4_singleton_orbit(self):
        A = ep.induced_bn_action(ep.cyclic(4))
        singles = [1 << i for i in range(4)]
        assert len({A.orbit_of[x] for x in singles}) == 1

    def test_d10_orbit_counts(self):
        A = ep.induced_bn_action(ep.dihedral(5))
        assert orbit_counts_by_rank(A) == (1, 1, 2, 2, 1, 1)


class TestActionOnEdges:
    def test_trivial_identity(self):
        A = ep.induced_bn_action(ep.trivial(2))
        eact, epos = action_on_edges(A, "E")
        assert eact.gen_maps == ()
        assert len(set(eact.orbit_of)) == epos.poset.n

    def test_s3_edge_orbits(self):
        A = ep.induced_bn_action(ep.symmetric(3))
        eact, _ = action_on_edges(A, "E")
        assert orbit_counts_by_rank(eact) == (1, 1, 1)

    def test_c3_edge_orbits(self):
        A = ep.induced_bn_action(ep.cyclic(3))
        eact, _ = action_on_edges(A, "E")
        assert orbit_counts_by_rank(eact) == (1, 2, 1)

    def test_h_action_valid(self):
        A = ep.induced_bn_action(ep.cyclic(4))
        hact, hpos = action_on_edges(A, "H")
        assert hact.poset.n == hpos.poset.n == 32


class TestQuotient:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bn_mod_sn_is_chain(self, n):
        q = ep.quotient(ep.induced_bn_action(ep.symmetric(n)))
        assert q.poset.rank_vector == tuple([1] * (n + 1))

    def test_b4_mod_c4_necklaces(self):
        q = ep.quotient(ep.induced_bn_action(ep.cyclic(4)))
        assert q.poset.rank_vector == (1, 1, 2, 1, 1)

    def test_trivial_quotient_isomorphic(self):
        q = ep.quotient(ep.induced_bn_action(ep.trivial(3)))
        assert ep.is_isomorphic(q.poset, ep.boolean_algebra(3))[0]

    def test_orbit_ranks_constant(self):
        A = ep.induced_bn_action(ep.dihedral(6))
        for x in range(A.poset.n):
            rep = ep.quotient(A).reps[A.orbit_of[x]]
            assert A.poset.ranks[rep] == A.poset.ranks[x]


class TestQMap:
    def test_trivial_is_identity(self):
        qm = ep.q_map(ep.induced_bn_action(ep.trivial(3)))
        assert qm.bijective and qm.isomorphism

    def test_d10_bijective(self):
        qm = ep.q_map(ep.induced_bn_action(ep.dihedral(5)))
        assert qm.bijective

    def test_c3_not_injective_at_rank_one(self):
        qm = ep.q_map(ep.induced_bn_action(ep.cyclic(3)))
        assert not qm.bijective
        assert qm.edge_quotient.poset.rank_vector == (1, 2, 1)
        assert qm.quotient_edges.poset.rank_vector == (1, 1, 1)

    def test_built_once_per_action(self):
        A = ep.induced_bn_action(ep.cyclic(4))
        assert ep.q_map(A) is ep.q_map(A)

    @pytest.mark.parametrize(
        "family,n", [("cyclic", 3), ("cyclic", 6), ("dihedral", 5), ("symmetric", 4)]
    )
    def test_matches_rebuilt_quotients(self, family, n):
        # the quotients q carries equal E(P)/G and E(P/G) rebuilt independently
        # on a fresh action, as the rank-counts CCT test once built them
        fresh = ep.induced_bn_action(ep.named_group(family, n))
        rebuilt = (
            ep.quotient(action_on_edges(fresh, "E")[0]).poset,
            ep.edge_poset(ep.quotient(fresh).poset).poset,
        )
        qm = ep.q_map(ep.induced_bn_action(ep.named_group(family, n)))
        for old, new in zip(rebuilt, (qm.edge_quotient.poset, qm.quotient_edges.poset)):
            assert (old.ranks, old.covers, old.labels) == (new.ranks, new.covers, new.labels)

    def test_surjectivity_rank_counts(self, rng):
        # |E(P)/G|_i >= |E(P/G)|_i pointwise, a consequence of surjectivity
        for G in (ep.cyclic(4), ep.dihedral(4), ep.symmetric(4), ep.cyclic(6)):
            qm = ep.q_map(ep.induced_bn_action(G))
            left = qm.edge_quotient.poset.rank_vector
            right = qm.quotient_edges.poset.rank_vector
            assert len(left) == len(right)
            assert all(a >= b for a, b in zip(left, right))


class TestCCT:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_symmetric_cct(self, n):
        assert ep.is_cct(ep.induced_bn_action(ep.symmetric(n))).ok

    def test_c3_witness(self):
        res = ep.is_cct(ep.induced_bn_action(ep.cyclic(3)))
        assert not res.ok and res.witness == (0b001, 0b010, 0b011)

    def test_d18_witness_matches_construction(self):
        res = ep.is_cct(ep.induced_bn_action(ep.dihedral(9)))
        # z = {0,1,3,4,6}, x = z minus {4}, y = z minus {1} (0-indexed)
        assert not res.ok and res.witness == (0b1001011, 0b1011001, 0b1011011)

    def test_check_cct_triple(self):
        A = ep.induced_bn_action(ep.dihedral(9))
        assert not ep.check_cct_triple(A, 0b1001011, 0b1011001, 0b1011011)
        B = ep.induced_bn_action(ep.symmetric(3))
        assert ep.check_cct_triple(B, 0b001, 0b010, 0b011)
        with pytest.raises(InvalidParams):
            ep.check_cct_triple(B, 0b001, 0b110, 0b011)

    def test_methods_agree_small_battery(self):
        groups = [ep.cyclic(3), ep.cyclic(4), ep.dihedral(4), ep.symmetric(3), ep.trivial(2)]
        for G in groups:
            A = ep.induced_bn_action(G)
            verdicts = {ep.is_cct(A, m).ok for m in CCT_METHODS}
            assert len(verdicts) == 1

    def test_unknown_method(self):
        with pytest.raises(InvalidParams):
            ep.is_cct(ep.induced_bn_action(ep.trivial(1)), "guess")

    def test_scan_builds_no_element_table(self):
        A = ep.induced_bn_action(ep.symmetric(6))
        assert ep.is_cct(A, "direct").ok and ep.is_cct(A, "dual").ok
        assert "element_maps" not in A.__dict__


class TestCCTOracle:
    """The Schreier-generator scan against the element-map scan it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sweep_classes(self, n):
        for G in ep.subgroup_sweep(n):
            A = ep.induced_bn_action(G)
            for B in (A, action_on_edges(A, "E")[0], action_on_edges(A, "H")[0]):
                assert_scans_match_oracle(B)

    def test_product_actions(self):
        c3 = ep.induced_bn_action(ep.cyclic(3))
        d4 = ep.induced_bn_action(ep.dihedral(4))
        s2 = ep.induced_bn_action(ep.symmetric(2))
        for PA in (ep.product_action(c3, d4), ep.product_action(s2, c3)):
            assert_scans_match_oracle(PA)

    def test_wreath_actions(self):
        for A, l in (
            (ep.induced_bn_action(ep.cyclic(3)), 2),
            (ep.induced_bn_action(ep.symmetric(2)), 3),
        ):
            assert_scans_match_oracle(ep.wreath_action(A, l))

    @pytest.mark.parametrize("G", [ep.dihedral(9), ep.symmetric(3)], ids=["D9", "S3"])
    def test_check_cct_triple_every_triple(self, G):
        A = ep.induced_bn_action(G)
        down = A.poset.down
        for z in range(A.poset.n):
            stab = [m for m in A.element_maps.values() if m[z] == z]
            for x in down[z]:
                for y in down[z]:
                    if A.orbit_of[x] == A.orbit_of[y]:
                        expected = any(m[x] == y for m in stab)
                        assert ep.check_cct_triple(A, x, y, z) == expected


class TestProductWreathActions:
    def test_trivial_product(self):
        A = ep.induced_bn_action(ep.trivial(1))
        PA = ep.product_action(A, A)
        assert PA.group.order == 1 and PA.poset.n == 4
        assert ep.is_cct(PA).ok

    def test_s2_squared_cct(self):
        A = ep.induced_bn_action(ep.symmetric(2))
        PA = ep.product_action(A, A)
        assert ep.is_cct(PA).ok
        assert ep.is_isomorphic(PA.poset, ep.boolean_algebra(4))[0]

    def test_non_cct_factor_preserved(self):
        PA = ep.product_action(
            ep.induced_bn_action(ep.cyclic(3)), ep.induced_bn_action(ep.trivial(1))
        )
        assert not ep.is_cct(PA).ok

    def test_wreath_l1_is_original(self):
        A = ep.induced_bn_action(ep.symmetric(2))
        WA = ep.wreath_action(A, 1)
        assert WA.gen_maps == A.gen_maps and WA.poset.n == A.poset.n

    def test_wreath_s2_on_b2_squared(self):
        WA = ep.wreath_action(ep.induced_bn_action(ep.symmetric(2)), 2)
        assert WA.group.order == 8
        assert ep.is_cct(WA).ok

    def test_wreath_s3_on_b3_squared(self):
        WA = ep.wreath_action(ep.induced_bn_action(ep.symmetric(3)), 2)
        assert WA.group.order == 72
        assert ep.is_cct(WA).ok

    def test_cct_closure_battery(self):
        # direct products and wreaths of CCT actions stay CCT
        s2 = ep.induced_bn_action(ep.symmetric(2))
        d5 = ep.induced_bn_action(ep.dihedral(5))
        assert ep.is_cct(ep.product_action(s2, d5)).ok
        assert ep.is_cct(ep.product_action(d5, d5)).ok
        assert ep.is_cct(ep.wreath_action(s2, 3)).ok


class TestElementaryAbelian:
    @pytest.mark.parametrize(
        "gens, degree",
        [
            (["(1 2)"], 2),
            (["(1 2)(3 4)"], 4),
            (["(1 2)(3 4)(5 6)"], 6),
            (["(1 2)", "(3 4)"], 4),
            (["(1 2)(3 4)", "(1 3)(2 4)"], 4),
            (["(1 2)(3 4)", "(5 6)"], 6),
            (["(1 2)", "(3 4)", "(5 6)"], 6),
            (["(1 2)(3 4)", "(1 3)(2 4)", "(5 6)"], 6),
            (["(1 2)(3 4)(5 6)(7 8)", "(1 3)(2 4)(5 7)(6 8)", "(1 5)(2 6)(3 7)(4 8)"], 8),
        ],
    )
    def test_z2k_actions_cct(self, gens, degree):
        G = ep.elementary_abelian_2(
            [Permutation.from_cycles(t, degree) for t in gens], degree
        )
        assert ep.is_cct(ep.induced_bn_action(G)).ok


class TestLeftRegularCCT:
    def test_exactly_elementary_abelian(self):
        for name, table in small_group_tables().items():
            if len(table) < 2:
                continue
            A = ep.induced_bn_action(ep.left_regular(table))
            assert ep.is_cct(A).ok == (name in ELEMENTARY_ABELIAN_2), name


class TestComplementSelfDuality:
    def test_trivial_b3(self):
        w = ep.complement_self_duality(ep.induced_bn_action(ep.trivial(3)))
        assert w.quotient_edge.is_isomorphism() and w.edge_quotient.is_isomorphism()

    def test_c5(self):
        w = ep.complement_self_duality(ep.induced_bn_action(ep.cyclic(5)))
        assert w.quotient_edge.is_isomorphism() and w.edge_quotient.is_isomorphism()

    def test_b2_squared_counts_as_boolean(self):
        # positional product indexing concatenates bit-masks, so B_2 x B_2 is
        # literally B_4 and the complement witnesses go through
        A = ep.induced_bn_action(ep.symmetric(2))
        PA = ep.product_action(A, A)
        w = ep.complement_self_duality(PA)
        assert w.quotient_edge.is_isomorphism()

    def test_requires_boolean(self):
        A = ep.PosetAction(ep.trivial(1), ep.chain(3), [])
        with pytest.raises(InvalidParams):
            ep.complement_self_duality(A)


class TestQNotIsomorphism:
    def test_d20_on_b10_q_bijective_not_isomorphism(self):
        A = ep.induced_bn_action(ep.dihedral(10))
        qm = ep.q_map(A)
        assert qm.bijective and not qm.isomorphism
        # the witness pair: classes of ({2,4},{1,2,4}) and ({2,4,7},{2,4,6,7})
        # are related in E(B_10/G) but not in E(B_10)/G  (sets 1-indexed)
        x, y, a, b = 0b1010, 0b1011, 0b1001010, 0b1101010
        _, epos = action_on_edges(A, "E")
        quot = qm.base_quotient
        eq = qm.edge_quotient
        qe = qm.quotient_edges
        left = qe.index[(quot.orbit_of[x], quot.orbit_of[y])]
        right = qe.index[(quot.orbit_of[a], quot.orbit_of[b])]
        assert qe.poset.leq(left, right)
        o1 = eq.orbit_of[epos.index[(x, y)]]
        o2 = eq.orbit_of[epos.index[(a, b)]]
        assert not eq.poset.leq(o1, o2)
