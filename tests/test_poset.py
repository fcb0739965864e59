import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import edgeposets as ep
from edgeposets.catalog import fig1_poset, fig2_poset
from edgeposets.poset import RANK_CAP
from edgeposets.errors import (
    DuplicateCover,
    IndexOutOfRange,
    InvalidMorphism,
    InvalidParams,
    NotGraded,
    TooLarge,
)

from conftest import graded_posets, random_graded_poset, shuffle_poset


class TestBuild:
    def test_three_chain(self):
        P = ep.GradedPoset([0, 1, 2], [(0, 1), (1, 2)])
        assert P.n == 3 and P.rank_vector == (1, 1, 1)

    def test_fig1_rank_vector(self):
        assert fig1_poset().rank_vector == (1, 2, 2, 2, 1)

    def test_rank_jump_rejected(self):
        with pytest.raises(NotGraded):
            ep.GradedPoset([0, 1, 2], [(0, 2)])

    def test_duplicate_cover_rejected(self):
        with pytest.raises(DuplicateCover):
            ep.GradedPoset([0, 1], [(0, 1), (0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRange):
            ep.GradedPoset([0, 1], [(0, 5)])

    def test_self_cover_rejected(self):
        with pytest.raises(NotGraded):
            ep.GradedPoset([0, 1], [(1, 1)])

    @given(graded_posets(), st.randoms(use_true_random=False))
    def test_up_down_ascending_from_shuffled_covers(self, P, rng):
        P = shuffle_poset(rng, P)  # element order no longer follows rank
        covers = list(P.covers)
        rng.shuffle(covers)
        Q = ep.GradedPoset(P.ranks, covers)
        for adjacency in (Q.up, Q.down):
            assert all(list(xs) == sorted(xs) for xs in adjacency)
        assert sorted((x, y) for x in range(Q.n) for y in Q.up[x]) == sorted(covers)
        assert sorted((x, y) for y in range(Q.n) for x in Q.down[y]) == sorted(covers)


    def test_covers_ascend_from_shuffled_list_input(self, rng):
        for _ in range(100):
            P = shuffle_poset(rng, random_graded_poset(rng))
            covers = [list(c) for c in P.covers]
            rng.shuffle(covers)
            Q = ep.GradedPoset(P.ranks, covers)
            assert Q.covers == P.covers == tuple(sorted(Q.covers))
            assert all(type(c) is tuple for c in Q.covers)

    @pytest.mark.parametrize(
        "covers, error, message",
        [
            # each list holds a later fault that sorts first: the error names
            # the first offending cover in input order
            ([[1, 2], [2, 4], [1, 2], [0, 2], [0, 2]], DuplicateCover, r"\(1, 2\) repeated"),
            ([[3, 9], [0, 7]], IndexOutOfRange, r"\(3, 9\) outside"),
            ([[1, 4], [0, 4]], NotGraded, r"\(1, 4\) jumps rank 0 -> 2"),
            ([[1, 4], [0, 9]], NotGraded, r"\(1, 4\) jumps"),
            ([[0, 9], [1, 4]], IndexOutOfRange, r"\(0, 9\) outside"),
        ],
        ids=["duplicate", "out-of-range", "rank-jump", "jump-then-range", "range-then-jump"],
    )
    def test_errors_name_the_first_offender_in_input_order(self, covers, error, message):
        with pytest.raises(error, match=message):
            ep.GradedPoset([0, 0, 1, 1, 2], covers)


class TestBooleanAlgebra:
    def test_b1(self):
        P = ep.boolean_algebra(1)
        assert P.n == 2 and P.covers == ((0, 1),)

    def test_b4_rank_vector(self):
        assert ep.boolean_algebra(4).rank_vector == (1, 4, 6, 4, 1)

    def test_b3_cover_count(self):
        # sum over i of binom(3, i) * (3 - i) = 3 + 6 + 3
        assert len(ep.boolean_algebra(3).covers) == 12

    def test_cap(self):
        with pytest.raises(TooLarge):
            ep.boolean_algebra(17)

    def test_labels(self):
        P = ep.boolean_algebra(2)
        assert P.label(0) == "{}" and P.label(3) == "{1,2}"


class TestLeq:
    def test_reflexive(self):
        P = fig1_poset()
        assert all(P.leq(x, x) for x in range(P.n))

    def test_b3_containment(self):
        P = ep.boolean_algebra(3)
        assert P.leq(0b001, 0b111)
        assert not P.leq(0b011, 0b101)

    def test_fig1_incomparable(self):
        P = fig1_poset()
        assert not P.leq(1, 4) and not P.leq(4, 1)

    @pytest.mark.parametrize("x,y", [(-1, 0), (0, 2), (2, 2)])
    def test_out_of_range(self, x, y):
        with pytest.raises(IndexOutOfRange):
            ep.chain(2).leq(x, y)

    @given(graded_posets())
    def test_matches_transitive_closure(self, P):
        # brute force: iterate cover-composition to a fixed point
        rel = {(x, x) for x in range(P.n)} | set(P.covers)
        while True:
            more = {(a, d) for a, b in rel for c, d in P.covers if b == c}
            if more <= rel:
                break
            rel |= more
        for x in range(P.n):
            for y in range(P.n):
                assert P.leq(x, y) == ((x, y) in rel)

    def test_boolean_13_matches_inclusion(self):
        # 8,192 elements: leq against set inclusion
        P = ep.boolean_algebra(13)
        rng = random.Random(13)
        top = P.n - 1
        pairs = [(0, 0), (top, top), (0, top), (top, 0), (0, 4321), (4321, top)]
        for _ in range(150):
            x = rng.randrange(P.n)
            pairs += [(x, x), (x, rng.randrange(P.n)), (x, x | rng.randrange(P.n))]
        assert all(P.leq(x, y) == (x & y == x) for x, y in pairs)


class TestDual:
    def test_chain_self_dual(self):
        P = ep.chain(3)
        assert ep.is_isomorphic(P, P.dual())[0]

    def test_b3_self_dual(self):
        P = ep.boolean_algebra(3)
        assert ep.is_isomorphic(P, P.dual())[0]

    def test_fig2_self_dual(self):
        assert ep.is_self_dual(fig2_poset())

    @given(graded_posets())
    def test_double_dual_is_identity(self, P):
        D = P.dual().dual()
        assert D.ranks == P.ranks and D.covers == P.covers


class TestCombine:
    def test_product_of_b1s_is_b2(self):
        P = ep.combine(ep.boolean_algebra(1), ep.boolean_algebra(1))
        assert ep.is_isomorphic(P, ep.boolean_algebra(2))[0]

    def test_triple_b2_disjoint_union(self):
        b2 = ep.boolean_algebra(2)
        P = ep.disjoint_union([b2, b2, b2])
        assert P.rank_vector == (3, 6, 3)

    def test_chain_product_rank_vector(self):
        P = ep.combine(ep.chain(3), ep.chain(3))
        assert P.rank_vector == (1, 2, 3, 2, 1)

    @given(graded_posets(max_ranks=3, max_width=3), graded_posets(max_ranks=3, max_width=3))
    def test_product_rank_vector_is_convolution(self, P, Q):
        R = ep.combine(P, Q)
        a, b = P.rank_vector, Q.rank_vector
        conv = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        assert list(R.rank_vector) == conv


class TestIsomorphism:
    def test_b2_vs_diamond(self):
        diamond = ep.GradedPoset([0, 1, 1, 2], [(0, 1), (0, 2), (1, 3), (2, 3)])
        found, witness = ep.is_isomorphic(ep.boolean_algebra(2), diamond)
        assert found and sorted(witness) == [0, 1, 2, 3]

    def test_b2_vs_chain(self):
        assert not ep.is_isomorphic(ep.boolean_algebra(2), ep.chain(4))[0]

    def test_reflexive_on_random(self, rng):
        for _ in range(50):
            P = random_graded_poset(rng)
            found, witness = ep.is_isomorphic(P, P)
            assert found
            assert all((witness[x], witness[y]) in P.cover_set for x, y in P.covers)

    def test_symmetric_on_random_pairs(self, rng):
        for i in range(50):
            P = random_graded_poset(rng)
            Q = shuffle_poset(rng, P) if i % 2 == 0 else random_graded_poset(rng)
            assert ep.is_isomorphic(P, Q)[0] == ep.is_isomorphic(Q, P)[0]

    def test_shuffles_are_isomorphic(self, rng):
        for _ in range(20):
            P = random_graded_poset(rng)
            assert ep.is_isomorphic(P, shuffle_poset(rng, P))[0]

    def test_same_profile_non_isomorphic(self):
        # two rank vectors (2, 2) posets: a 2x2 crown vs two parallel chains
        crown = ep.GradedPoset([0, 0, 1, 1], [(0, 2), (0, 3), (1, 2), (1, 3)])
        chains = ep.GradedPoset([0, 0, 1, 1], [(0, 2), (1, 3)])
        assert not ep.is_isomorphic(crown, chains)[0]

    def test_search_exhausted(self):
        # a 12-cycle against two 6-cycles, each zigzagging between ranks 0
        # and 1: every element keeps one refined colour, so only the
        # backtracking search, run to its end, tells them apart
        def cycles(*lengths):
            n = sum(lengths) // 2
            covers, base = [], 0
            for m in (length // 2 for length in lengths):
                for i in range(m):
                    covers += [(base + i, n + base + i), (base + i, n + base + (i - 1) % m)]
                base += m
            return ep.GradedPoset([0] * n + [1] * n, covers)

        assert ep.is_isomorphic(cycles(12), cycles(6, 6)) == (False, None)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_cycle_against_two_cycles_by_incidence(self, k):
        # vertex/edge incidence posets of C_2k and 2 C_k: colour refinement
        # splits nothing, so only placing each element next to a placed one
        # keeps the search from trying every placement of rank 0
        def incidence(*lengths):
            n = sum(lengths)
            covers, base = [], 0
            for m in lengths:
                for i in range(m):
                    covers += [(base + i, n + base + i), (base + (i + 1) % m, n + base + i)]
                base += m
            return ep.GradedPoset([0] * n + [1] * n, covers)

        assert ep.is_isomorphic(incidence(2 * k), incidence(k, k)) == (False, None)
        assert ep.is_isomorphic(incidence(k, k), incidence(k, k))[0]


class TestMorphism:
    def test_identity(self):
        P = fig1_poset()
        f = ep.PosetMorphism.identity(P)
        assert f.is_isomorphism()

    def test_rank_violation(self):
        with pytest.raises(InvalidMorphism):
            ep.PosetMorphism(ep.chain(2), ep.chain(2), [1, 0])

    @pytest.mark.parametrize("image", [[0, 2], [-1, 1]])
    def test_image_out_of_range(self, image):
        with pytest.raises(InvalidMorphism, match="out of range"):
            ep.PosetMorphism(ep.chain(2), ep.chain(2), image)

    def test_cover_violation(self):
        P = ep.chain(2)
        Q = ep.GradedPoset([0, 1], [])
        with pytest.raises(InvalidMorphism):
            ep.PosetMorphism(P, Q, [0, 1])

    def test_bijective_morphism_need_not_be_isomorphism(self):
        loose = ep.GradedPoset([0, 1], [])
        f = ep.PosetMorphism(loose, ep.chain(2), [0, 1])
        assert f.is_bijective() and not f.is_isomorphism()

    def test_composition(self):
        P = ep.boolean_algebra(2)
        f = ep.PosetMorphism.identity(P)
        g = ep.PosetMorphism.identity(P)
        assert f.then(g).image == f.image

    def test_inverse_roundtrip(self):
        P = ep.boolean_algebra(2)
        diamond = ep.GradedPoset([0, 1, 1, 2], [(0, 1), (0, 2), (1, 3), (2, 3)])
        _, witness = ep.is_isomorphic(P, diamond)
        f = ep.PosetMorphism(P, diamond, witness)
        assert f.inverse().then(f).image == tuple(range(P.n))

    @pytest.mark.parametrize("n", range(7))
    def test_unchecked_inverse_matches_validating_constructor(self, n):
        f = ep.h_bn_decomposition(ep.h_poset(ep.boolean_algebra(n)))
        inv = [0] * f.target.n
        for i, j in enumerate(f.image):
            inv[j] = i
        checked = ep.PosetMorphism(f.target, f.source, inv)
        g = f.inverse()
        assert (g.source, g.target, g.image) == (checked.source, checked.target, checked.image)
        loose = ep.GradedPoset([0, 1], [])
        with pytest.raises(InvalidMorphism):
            ep.PosetMorphism(loose, ep.chain(2), [0, 1]).inverse()


class TestSerialization:
    def test_json_round_trip(self):
        P = fig2_poset()
        Q = ep.poset_from_json(json.loads(json.dumps(ep.poset_to_json(P))))
        assert Q.ranks == P.ranks and Q.covers == P.covers and Q.labels == P.labels

    def test_rank_cap(self):
        # checked before any rank-indexed structure is built
        assert ep.poset_from_json({"ranks": [RANK_CAP], "covers": []}).max_rank == RANK_CAP
        with pytest.raises(InvalidParams):
            ep.poset_from_json({"ranks": [0, RANK_CAP + 1], "covers": []})

    def test_dot_output(self):
        out = ep.poset_to_dot(ep.boolean_algebra(2))
        assert out.startswith("digraph")
        assert "rank=same" in out and "->" in out
        assert out.count("->") == 4
