import pytest

import edgeposets as ep
from edgeposets import actions
from edgeposets.actions import CCT_METHODS, CCTResult, action_on_edges
from edgeposets.catalog import ELEMENTARY_ABELIAN_2, small_group_tables, tree8, tree10
from edgeposets.errors import InvalidParams
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


def element_map_orbits(A):
    """Orbit labels read off every group element's map, numbered by ascending
    least element: the oracle for PosetAction.orbit_of."""
    label = [None] * A.poset.n
    count = 0
    for x in range(A.poset.n):
        if label[x] is None:
            for m in A.element_maps.values():
                label[m[x]] = count
            count += 1
    return tuple(label)


def per_bit_induced_maps(G):
    """g.x = {g.i : i in x} taken one bit of x at a time, as induced_bn_action
    built its maps before the subset recursion: the oracle for its maps."""
    maps = []
    for g in G.generators:
        m = []
        for x in range(1 << G.degree):
            y = 0
            bits = x
            while bits:
                low = bits & -bits
                y |= 1 << g(low.bit_length() - 1)
                bits ^= low
            m.append(y)
        maps.append(tuple(m))
    return tuple(maps)


def coordinate_wreath_action(A, l):
    """G wr S_l on the l-fold product poset, built by decoding and encoding
    coordinates as wreath_action did before it reused product_action: the
    oracle for wreath_action.  Returns (group, poset, gen_maps)."""
    P = A.poset
    power = P
    for _ in range(l - 1):
        power = ep.combine(power, P)
    n = P.n

    def decode(t):
        return [t // n ** (l - 1 - b) % n for b in range(l)]

    def encode(coords):
        t = 0
        for c in coords:
            t = t * n + c
        return t

    maps = []
    for b in range(l):
        for m in A.gen_maps:
            out = []
            for t in range(n**l):
                coords = decode(t)
                coords[b] = m[coords[b]]
                out.append(encode(coords))
            maps.append(tuple(out))
    for h in ep.symmetric(l).generators:
        out = []
        for t in range(n**l):
            coords = decode(t)
            moved = [0] * l
            for b in range(l):
                moved[h(b)] = coords[b]
            out.append(encode(moved))
        maps.append(tuple(out))
    return ep.wreath(A.group, ep.symmetric(l)), power, tuple(maps)


def tree_action(T):
    """tree_automorphisms(T) acting on the tree poset itself: g sends each
    node to the node of the same rank above the image of its leaves."""
    P = T.poset
    below = [0] * P.n  # bit k: leaf T.leaves[k] lies under the node
    for k, leaf in enumerate(T.leaves):
        below[leaf] = 1 << k
    for x in sorted(range(P.n), key=P.ranks.__getitem__):
        for c in T.children[x]:
            below[x] |= below[c]
    node = {(below[x], P.ranks[x]): x for x in range(P.n)}
    G = ep.tree_automorphisms(T)
    maps = []
    for g in G.generators:
        images = [
            sum(1 << g(k) for k in range(len(T.leaves)) if below[x] >> k & 1)
            for x in range(P.n)
        ]
        maps.append([node[(images[x], P.ranks[x])] for x in range(P.n)])
    return ep.PosetAction(G, P, maps)


def assert_q_matches_rebuilt(A):
    """The quotients A's q carries equal E(P)/G rebuilt from E(P) and the
    action on it (ranks, covers, labels, orbit_of and reps) and E(P/G)
    rebuilt from P/G."""
    old = ep.quotient(action_on_edges(A, "E")[0])
    rebuilt_qe = ep.edge_poset(ep.quotient(A).poset).poset
    qm = ep.q_map(A)
    new = qm.edge_quotient
    assert (new.orbit_of, new.reps) == (old.orbit_of, old.reps)
    for a, b in ((old.poset, new.poset), (rebuilt_qe, qm.quotient_edges.poset)):
        assert (a.ranks, a.covers, a.labels) == (b.ranks, b.covers, b.labels)


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

    @pytest.mark.parametrize(
        "ranks,covers,m",
        [
            ([0, 0], [], (0,)),  # wrong length
            ([0, 0], [], (0, 0)),  # preserves ranks and covers, not a bijection
            ([0, 0, 1], [(0, 2)], (1, 0, 2)),  # a bijection breaking cover (0, 2)
        ],
        ids=["length", "not-bijective", "cover"],
    )
    def test_rejects_invalid_generator_map(self, ranks, covers, m):
        with pytest.raises(InvalidParams, match=r"map for \(1 2\)"):
            ep.PosetAction(ep.symmetric(2), ep.GradedPoset(ranks, covers), [m])

    def test_rejects_relation_violation(self):
        # C_2 generator sent to a 4-cycle on an antichain: squares to a
        # double transposition, not the identity
        G = ep.PermGroup(2, [Permutation.from_cycles("(1 2)", 2)])
        with pytest.raises(InvalidParams, match="violate a group relation"):
            ep.PosetAction(G, ep.antichain(4), [(1, 2, 3, 0)])

    def test_element_maps_cover_group(self):
        A = ep.induced_bn_action(ep.dihedral(4))
        assert len(A.element_maps) == 8

    def test_relation_violation_rejected_without_closure(self, monkeypatch):
        # S_3 with the transposition as a transposition and the 3-cycle as an
        # 8-cycle of an antichain: the diagonal group is 6 * 8! = 241,920
        # tuples, and its Schreier-Sims order rejects the maps unenumerated
        def refuse(*args, **kwargs):
            raise AssertionError("_tuple_close called on hand-given maps")

        monkeypatch.setattr(actions, "_tuple_close", refuse)
        G = ep.symmetric(3)
        swap = (1, 0, 2, 3, 4, 5, 6, 7)
        cycle = (1, 2, 3, 4, 5, 6, 7, 0)
        maps = [swap if g.images == (1, 0, 2) else cycle for g in G.generators]
        with pytest.raises(InvalidParams, match="violate a group relation"):
            ep.PosetAction(G, ep.antichain(8), maps)

    def test_relation_violation_caught_by_cct(self):
        # both generators of S_3 as one transposition of an antichain: each
        # map is an involutive automorphism, but the 3-cycle's cube is not the
        # identity.  The CCT scans rest on Schreier's lemma for an action of
        # G, so such maps are bad input caught on construction, never a
        # finding or an internal inconsistency of a scan
        G = ep.symmetric(3)
        with pytest.raises(InvalidParams, match="violate a group relation"):
            ep.PosetAction(G, ep.antichain(3), [(1, 0, 2)] * len(G.generators))

    def test_non_faithful_action_passes(self):
        # the sign of S_3 acting on a 2-element antichain
        G = ep.symmetric(3)
        maps = [(1, 0) if g.images == (1, 0, 2) else (0, 1) for g in G.generators]
        A = ep.PosetAction(G, ep.antichain(2), maps)
        assert A.diagonal_order == 6
        assert ep.is_cct(A, "direct").ok and ep.is_cct(A, "dual").ok
        assert len(A.element_maps) == 6

    def test_package_built_actions_pass_the_validating_constructor(self):
        # the package's constructions store their maps unchecked, as maps of
        # a homomorphism G -> Aut(P); the constructor that checks hand-given
        # maps must accept every one of them
        swept = [ep.induced_bn_action(G) for n in range(1, 6) for G in ep.subgroup_sweep(n)]
        groups = [ep.named_group(f, k) for f, ks in (
            ("trivial", range(4)), ("symmetric", range(1, 7)), ("cyclic", range(1, 9)),
            ("dihedral", range(3, 9)), ("hyperoctahedral", range(1, 5)),
        ) for k in ks]
        groups += [ep.left_regular(t) for t in small_group_tables().values()]
        groups += [ep.tree_automorphisms(tree8()), ep.tree_automorphisms(tree10())]
        c3, d4, s2 = map(ep.induced_bn_action, (ep.cyclic(3), ep.dihedral(4), ep.symmetric(2)))
        cherry = tree_action(ep.tree_from_children({"children": [{}, {}]}))
        products = [
            ep.product_action(c3, d4),
            ep.product_action(s2, c3),
            ep.product_action(tree_action(tree10()), c3),
            ep.wreath_action(c3, 2),
            ep.wreath_action(s2, 3),
            ep.wreath_action(cherry, 3),
        ]
        on_edges = [action_on_edges(A, which)[0] for A in swept + products for which in "EH"]
        for A in swept + [ep.induced_bn_action(G) for G in groups] + products + on_edges:
            B = ep.PosetAction(A.group, A.poset, A.gen_maps)
            assert B.gen_maps == A.gen_maps and B.diagonal_order == A.group.order

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


class TestQuotientCovers:
    """quotient() reads P/G's covers off the orbit representatives' upper
    covers; the orbit pairs of all of P's covers, which it read before, are
    the oracle."""

    @staticmethod
    def assert_matches_all_covers(A):
        want = sorted({(A.orbit_of[x], A.orbit_of[y]) for x, y in A.poset.covers})
        assert list(ep.quotient(A).poset.covers) == want

    def test_random_actions(self, rng):
        for _ in range(60):
            n = rng.randint(1, 6)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
            A = ep.induced_bn_action(ep.PermGroup(n, gens))
            for B in (A, action_on_edges(A, "E")[0], action_on_edges(A, "H")[0]):
                self.assert_matches_all_covers(B)

    def test_product_and_wreath_actions(self):
        c3 = ep.induced_bn_action(ep.cyclic(3))
        d4 = ep.induced_bn_action(ep.dihedral(4))
        s2 = ep.induced_bn_action(ep.symmetric(2))
        cherry = tree_action(ep.tree_from_children({"children": [{}, {}]}))
        for B in (
            ep.product_action(c3, d4),
            ep.product_action(s2, c3),
            ep.product_action(tree_action(tree10()), c3),
            ep.wreath_action(c3, 2),
            ep.wreath_action(s2, 3),
            ep.wreath_action(cherry, 3),
        ):
            self.assert_matches_all_covers(B)


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
        "family,n",
        [("cyclic", 3), ("cyclic", 6), ("dihedral", 5), ("symmetric", 4),
         ("dihedral", 10), ("cyclic", 9)],
    )
    def test_matches_rebuilt_quotients(self, family, n):
        assert_q_matches_rebuilt(ep.induced_bn_action(ep.named_group(family, n)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_rebuilt_quotients_sweep_classes(self, n):
        for G in ep.subgroup_sweep(n):
            assert_q_matches_rebuilt(ep.induced_bn_action(G))

    def test_matches_rebuilt_quotients_non_boolean(self):
        cherry = tree_action(ep.tree_from_children({"children": [{}, {}]}))
        for A in (
            tree_action(tree8()),
            tree_action(tree10()),
            ep.product_action(tree_action(tree10()), ep.induced_bn_action(ep.cyclic(3))),
            ep.product_action(ep.induced_bn_action(ep.symmetric(2)), tree_action(tree8())),
            ep.wreath_action(cherry, 2),
            ep.wreath_action(cherry, 3),
        ):
            assert not actions.is_boolean_poset(A.poset)
            assert_q_matches_rebuilt(A)

    def test_edge_map_check_rejects_a_non_injective_map(self):
        # a map of B_2 sending {1} and {2} both to {1} is rejected where it
        # enters, so no action carries it to _edge_quotient; its edge map,
        # g.(x, y) = (gx, gy), is not a bijection of E(B_2) either, and the
        # validating constructor rejects it there too
        G = ep.symmetric(2)
        bad = (0, 1, 1, 3)
        with pytest.raises(InvalidParams, match="not a bijection"):
            ep.PosetAction(G, ep.boolean_algebra(2), [bad])
        E = ep.edge_poset(ep.boolean_algebra(2))
        edge_map = tuple(E.edge_at[bad[x]][bad[y]] for x, y in E.pairs)
        with pytest.raises(InvalidParams, match="not a bijection"):
            ep.PosetAction(G, E.poset, [edge_map])

    def test_edge_map_check_reads_the_whole_cover_relation(self):
        # the rotation's edge maps are automorphisms of E(B_3), but not of
        # E(B_3) with one cover dropped: the rotation carries another cover
        # onto it, and the validating constructor reads every cover
        A, E = action_on_edges(ep.induced_bn_action(ep.cyclic(3)), "E")
        ep.PosetAction(A.group, E.poset, A.gen_maps)
        P = E.poset
        dropped = ep.GradedPoset(P.ranks, P.covers[1:])
        with pytest.raises(InvalidParams, match="maps to non-cover"):
            ep.PosetAction(A.group, dropped, A.gen_maps)

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
    """The edge-orbit scan against the element-map scan."""

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

    @pytest.mark.parametrize(
        "G",
        [ep.dihedral(9), ep.symmetric(3), ep.cyclic(6), ep.hyperoctahedral(2)],
        ids=["D9", "S3", "C6", "B2"],
    )
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


class TestReplacedRoutineOracles:
    """orbit_of, induced_bn_action and wreath_action against the routines
    they replaced, kept here as oracles."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_orbit_of_sweep_classes(self, n):
        for G in ep.subgroup_sweep(n):
            A = ep.induced_bn_action(G)
            for B in (A, action_on_edges(A, "E")[0], action_on_edges(A, "H")[0]):
                assert B.orbit_of == element_map_orbits(B)

    def test_orbit_of_product_and_wreath_actions(self):
        c3 = ep.induced_bn_action(ep.cyclic(3))
        d4 = ep.induced_bn_action(ep.dihedral(4))
        s2 = ep.induced_bn_action(ep.symmetric(2))
        for B in (
            ep.product_action(c3, d4),
            ep.product_action(s2, c3),
            ep.wreath_action(c3, 2),
            ep.wreath_action(s2, 3),
        ):
            assert B.orbit_of == element_map_orbits(B)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_induced_maps_sweep_classes(self, n):
        for G in ep.subgroup_sweep(n):
            assert ep.induced_bn_action(G).gen_maps == per_bit_induced_maps(G)

    @pytest.mark.parametrize(
        "family,n", [("dihedral", 10), ("symmetric", 8), ("hyperoctahedral", 4)]
    )
    def test_induced_maps_named_groups(self, family, n):
        G = ep.named_group(family, n)
        assert ep.induced_bn_action(G).gen_maps == per_bit_induced_maps(G)

    @pytest.mark.parametrize(
        "G,l",
        [(ep.cyclic(3), 2), (ep.symmetric(2), 3), (ep.dihedral(4), 2), (ep.cyclic(3), 1)],
        ids=["C3-2", "S2-3", "D4-2", "C3-1"],
    )
    def test_wreath_matches_coordinate_construction(self, G, l):
        A = ep.induced_bn_action(G)
        WA = ep.wreath_action(A, l)
        group, power, maps = coordinate_wreath_action(A, l)
        assert WA.gen_maps == maps
        assert WA.group.generators == group.generators
        assert WA.poset.ranks == power.ranks
        assert WA.poset.covers == power.covers
        assert WA.poset.labels == power.labels


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

    def test_rewired_b3_is_not_boolean(self):
        # B_3 with cover ({3}, {1,3}) rewired to ({3}, {1,2}): the ranks and
        # the cover count of B_3, but not B_3
        B3 = ep.boolean_algebra(3)
        P = ep.GradedPoset(B3.ranks, [(4, 3) if c == (4, 5) else c for c in B3.covers])
        assert not ep.is_isomorphic(P, B3)[0]
        assert not actions.is_boolean_poset(P)
        with pytest.raises(InvalidParams):
            ep.complement_self_duality(ep.PosetAction(ep.trivial(3), P, []))

    def test_boolean_algebras_are_boolean(self):
        for n in range(6):
            assert actions.is_boolean_poset(ep.boolean_algebra(n))
        assert not actions.is_boolean_poset(ep.antichain(2))


class TestQNotIsomorphism:
    def test_d20_on_b10_q_bijective_not_isomorphism(self):
        A = ep.induced_bn_action(ep.dihedral(10))
        qm = ep.q_map(A)
        assert qm.bijective and not qm.isomorphism
        # the witness pair: classes of ({2,4},{1,2,4}) and ({2,4,7},{2,4,6,7})
        # are related in E(B_10/G) but not in E(B_10)/G  (sets 1-indexed)
        x, y, a, b = 0b1010, 0b1011, 0b1001010, 0b1101010
        _, epos = action_on_edges(A, "E")
        eq = qm.edge_quotient
        qe = qm.quotient_edges
        left = qe.edge_at[A.orbit_of[x]][A.orbit_of[y]]
        right = qe.edge_at[A.orbit_of[a]][A.orbit_of[b]]
        assert qe.poset.leq(left, right)
        o1 = eq.orbit_of[epos.edge_at[x][y]]
        o2 = eq.orbit_of[epos.edge_at[a][b]]
        assert not eq.poset.leq(o1, o2)
