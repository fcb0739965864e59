from math import comb

import pytest
from hypothesis import given

import edgeposets as ep
from edgeposets.catalog import fig1_edge_expected, fig1_poset, fig2_poset

from edgeposets.edges import _edge_pairs, _edge_positions

from conftest import graded_posets, inflate, random_graded_poset, shuffle_poset


def diamond():
    return ep.GradedPoset([0, 1, 1, 2], [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestEdgePoset:
    def test_single_point_empty(self):
        e = ep.edge_poset(ep.antichain(1))
        assert e.poset.n == 0 and e.poset.rank_vector == ()

    def test_fig1_matches_drawing(self):
        e = ep.edge_poset(fig1_poset())
        expected = fig1_edge_expected()
        assert e.poset.n == 9 and len(e.poset.covers) == 10
        found, _ = ep.is_isomorphic(e.poset, expected)
        assert found
        # the two crossing covers out of the bottom edge (0,1)
        i01, i13, i23 = e.edge_at[0][1], e.edge_at[1][3], e.edge_at[2][3]
        assert (i01, i13) in e.poset.cover_set
        assert (i01, i23) in e.poset.cover_set

    def test_boolean_rank_vector(self):
        assert ep.edge_poset(ep.boolean_algebra(3)).poset.rank_vector == (3, 6, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_boolean_edge_counts(self, n):
        e = ep.edge_poset(ep.boolean_algebra(n))
        expected = tuple(comb(n, i) * (n - i) for i in range(n))
        assert e.poset.rank_vector == expected

    @given(graded_posets())
    def test_rank_sizes_count_covers(self, P):
        e = ep.edge_poset(P)
        for i, size in enumerate(e.poset.rank_vector):
            assert size == sum(1 for x, _ in P.covers if P.ranks[x] == i)


class TestEdgePairs:
    def test_matches_key_sorted_oracle(self, rng):
        # the key-sorted formula _edge_pairs used before it read P.up rank by
        # rank; shuffled posets number their elements out of rank order
        for _ in range(200):
            P = shuffle_poset(rng, random_graded_poset(rng, max_ranks=5, max_width=5))
            want = tuple(sorted(P.covers, key=lambda c: (P.ranks[c[0]], c[0], c[1])))
            assert _edge_pairs(P) == want
            edge_at = _edge_positions(P, want)
            at = {(x, y): i for x in range(P.n) for y, i in edge_at[x].items()}
            assert at == {pair: i for i, pair in enumerate(want)}


class TestHPoset:
    def test_h_b3_three_squares(self):
        h = ep.h_poset(ep.boolean_algebra(3))
        b2 = ep.boolean_algebra(2)
        target = ep.disjoint_union([b2, b2, b2])
        assert ep.is_isomorphic(h.poset, target)[0]

    def test_chain(self):
        P = ep.chain(5)
        h = ep.h_poset(P)
        e = ep.edge_poset(P)
        assert len(h.poset.covers) == 0 and h.poset.rank_vector == (1, 1, 1, 1)
        assert ep.is_isomorphic(e.poset, ep.chain(4))[0]

    def test_diamond_two_chains(self):
        h = ep.h_poset(diamond())
        target = ep.disjoint_union([ep.chain(2), ep.chain(2)])
        assert ep.is_isomorphic(h.poset, target)[0]

    @given(graded_posets())
    def test_h_covers_subset_of_e_covers(self, P):
        h = ep.h_poset(P)
        e = ep.edge_poset(P)
        assert h.pairs == e.pairs
        assert h.poset.cover_set <= e.poset.cover_set


class TestEdgeMap:
    def test_identity(self):
        P = ep.boolean_algebra(3)
        f = ep.edge_map(ep.PosetMorphism.identity(P))
        assert f.image == tuple(range(f.source.n))

    def test_diamond_onto_chain(self):
        f = ep.PosetMorphism(diamond(), ep.chain(3), [0, 1, 1, 2])
        ef = ep.edge_map(f)
        assert ef.source.n == 4 and ef.target.n == 2
        assert set(ef.image) == {0, 1}

    def test_composition_law(self, rng):
        for _ in range(20):
            R = random_graded_poset(rng, max_ranks=3, max_width=3)
            Q, g = inflate(rng, R)
            P, f = inflate(rng, Q)
            left = ep.edge_map(f.then(g))
            right = ep.edge_map(f).then(ep.edge_map(g))
            assert left.image == right.image


class TestNaiveRelation:
    def test_fig1_not_graded(self):
        assert not ep.naive_edge_relation_is_graded(fig1_poset())

    def test_b3_graded(self):
        assert ep.naive_edge_relation_is_graded(ep.boolean_algebra(3))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_chains_graded(self, n):
        assert ep.naive_edge_relation_is_graded(ep.chain(n))

    def test_agrees_with_hasse_reduction(self, rng):
        fixed = [fig1_poset(), fig2_poset(), *map(ep.boolean_algebra, range(1, 5))]
        fixed += [ep.chain(n) for n in range(1, 7)]
        inflated = [inflate(rng, fig1_poset())[0] for _ in range(400)]
        randoms = [random_graded_poset(rng, max_ranks=5) for _ in range(1000)]
        verdicts = []
        for P in fixed + inflated + randoms:
            expected = reference_naive_edge_relation_is_graded(P)
            assert ep.naive_edge_relation_is_graded(P) == expected
            verdicts.append(expected)
        assert verdicts.count(False) >= 300 and verdicts.count(True) >= 900


def reference_naive_edge_relation_is_graded(P):
    """The verdict as first computed: build the componentwise relation on
    edge pairs as bitsets, take its Hasse reduction, and check that every
    Hasse edge raises edge rank by exactly one."""
    pairs = sorted(P.covers, key=lambda c: (P.ranks[c[0]], c[0], c[1]))
    m = len(pairs)
    ranks = [P.ranks[x] for x, _ in pairs]
    above = [0] * m
    for i, (x, y) in enumerate(pairs):
        for j, (a, b) in enumerate(pairs):
            if i != j and P.leq(x, a) and P.leq(y, b):
                above[i] |= 1 << j
    for i in range(m):
        bits = above[i]
        j = 0
        while bits >> j:
            if (bits >> j) & 1:
                # Hasse edge i -> j iff nothing sits strictly between
                between = False
                mids = above[i]
                k = 0
                while mids >> k:
                    if (mids >> k) & 1 and k != j and (above[k] >> j) & 1:
                        between = True
                        break
                    k += 1
                if not between and ranks[j] != ranks[i] + 1:
                    return False
            j += 1
    return True


class TestHToE:
    def test_b3(self):
        f = ep.h_to_e_bijection(ep.boolean_algebra(3))
        assert f.is_bijective() and f.source.n == 12

    def test_chain(self):
        P = ep.chain(4)
        f = ep.h_to_e_bijection(P)
        assert f.source.n == 3
        assert len(f.source.covers) == 0 and len(f.target.covers) == 2

    def test_fig1(self):
        f = ep.h_to_e_bijection(fig1_poset())
        assert f.is_bijective()
        assert f.source.cover_set <= f.target.cover_set


class TestHBnDecomposition:
    def test_n0_empty(self):
        f = ep.h_bn_decomposition(ep.h_poset(ep.boolean_algebra(0)))
        assert f.source.n == 0 and f.target.n == 0 and f.is_isomorphism()

    def test_n1_single_point(self):
        f = ep.h_bn_decomposition(ep.h_poset(ep.boolean_algebra(1)))
        assert f.source.n == 1 and f.target.n == 1

    def test_n3_components(self):
        f = ep.h_bn_decomposition(ep.h_poset(ep.boolean_algebra(3)))
        assert f.is_isomorphism()
        assert f.target.rank_vector == (3, 6, 3)

    def test_n5_component_rank_vectors(self):
        f = ep.h_bn_decomposition(ep.h_poset(ep.boolean_algebra(5)))
        assert f.is_isomorphism()
        # each block of the target is one B_4
        half = 1 << 4
        for copy in range(5):
            block = [f.target.ranks[copy * half + j] for j in range(half)]
            vec = [block.count(r) for r in range(5)]
            assert vec == [1, 4, 6, 4, 1]


class TestSerialization:
    def test_edge_table_json(self):
        e = ep.edge_poset(ep.boolean_algebra(2))
        obj = ep.edge_poset_to_json(e)
        assert obj["edges"] == [[0, 1], [0, 2], [1, 3], [2, 3]]
        assert len(obj["ranks"]) == 4


class TestDuality:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_edge_dual_commutes_boolean(self, n):
        assert ep.edge_dual_witness(ep.boolean_algebra(n)).is_isomorphism()

    def test_edge_dual_commutes_figs(self):
        assert ep.edge_dual_witness(fig1_poset()).is_isomorphism()
        assert ep.edge_dual_witness(fig2_poset()).is_isomorphism()

    def test_edge_dual_commutes_random(self, rng):
        for _ in range(20):
            P = random_graded_poset(rng)
            assert ep.edge_dual_witness(P).is_isomorphism()

    def test_self_dual_preserved(self):
        # a self-dual poset has a self-dual edge poset
        for P in (fig2_poset(), ep.boolean_algebra(3), ep.boolean_algebra(4)):
            assert ep.is_self_dual(P)
            assert ep.is_self_dual(ep.edge_poset(P).poset)
