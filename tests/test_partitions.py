from math import comb

import pytest

import edgeposets as ep
from edgeposets.errors import InvalidParams, TooLarge, WrongGroup
from edgeposets.partitions import Partition


class TestPartition:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            Partition((1, 2))
        with pytest.raises(InvalidParams):
            Partition((2, 0))

    def test_size(self):
        assert Partition((3, 2, 2)).size == 7


class TestBoxEnumeration:
    def test_empty_total(self):
        assert ep.partitions_in_box(0, 3, 3) == [Partition(())]

    def test_two_in_2x2(self):
        assert [p.parts for p in ep.partitions_in_box(2, 2, 2)] == [(1, 1), (2,)]

    def test_overfull_box(self):
        assert ep.partitions_in_box(5, 2, 2) == []

    @pytest.mark.parametrize("l,m", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_box_complementation(self, l, m):
        for k in range(l * m + 1):
            assert len(ep.partitions_in_box(k, l, m)) == len(
                ep.partitions_in_box(l * m - k, l, m)
            )

    @pytest.mark.parametrize("l,m", [(2, 2), (2, 3), (3, 3), (4, 2)])
    def test_total_count(self, l, m):
        total = sum(len(ep.partitions_in_box(k, l, m)) for k in range(l * m + 1))
        assert total == comb(l + m, l)


class TestNu:
    def test_two_distinct(self):
        assert ep.nu(Partition((2, 1))) == 2

    def test_repeated(self):
        assert ep.nu(Partition((3, 3, 3))) == 1

    def test_empty(self):
        assert ep.nu(Partition(())) == 0


class TestPCount:
    def test_p2_221(self):
        assert ep.p_count(2, 2, 2, 1) == 2

    def test_r_zero_counts_partitions(self):
        for k in range(5):
            assert ep.p_count(k, 2, 2, 0) == len(ep.partitions_in_box(k, 2, 2))

    def test_sequence_221(self):
        assert [ep.p_count(k, 2, 2, 1) for k in range(1, 5)] == [1, 2, 2, 1]


def wreath_quotient(l, m):
    G = ep.wreath(ep.symmetric(m), ep.symmetric(l))
    A = ep.induced_bn_action(G)
    return A, ep.quotient(A)


class TestYoungRepresentative:
    def test_empty_and_full(self):
        A, _ = wreath_quotient(2, 3)
        bottom = A.orbit_of[0]
        top = A.orbit_of[(1 << 6) - 1]
        assert ep.young_representative(A, bottom, 2, 3).parts == ()
        assert ep.young_representative(A, top, 2, 3).parts == (3, 3)

    def test_rank3_orbit_2x2(self):
        A, q = wreath_quotient(2, 2)
        rank3 = [o for o in range(q.n) if q.ranks[o] == 3]
        assert len(rank3) == 1
        assert ep.young_representative(A, rank3[0], 2, 2).parts == (2, 1)

    def test_orbits_biject_with_box_partitions(self):
        A, q = wreath_quotient(2, 3)
        seen = {ep.young_representative(A, o, 2, 3).parts for o in range(q.n)}
        expected = {
            p.parts for k in range(7) for p in ep.partitions_in_box(k, 2, 3)
        }
        assert seen == expected and len(seen) == q.n

    def test_lower_covers_count_corners(self):
        A, q = wreath_quotient(2, 3)
        for o in range(q.n):
            lam = ep.young_representative(A, o, 2, 3)
            assert len(q.down[o]) == ep.nu(lam)

    def test_wrong_group(self):
        A = ep.induced_bn_action(ep.cyclic(4))
        with pytest.raises(WrongGroup):
            ep.young_representative(A, 0, 2, 2)

    def test_wrong_degree(self):
        # the 2 x 3 wreath acts on 6 points, not on the 4 of a 2 x 2 box
        A, _ = wreath_quotient(2, 3)
        with pytest.raises(WrongGroup):
            ep.young_representative(A, 0, 2, 2)

    @pytest.mark.parametrize("orbit", [-1, 10])
    def test_orbit_out_of_range(self, orbit):
        A, q = wreath_quotient(2, 3)
        assert q.n == 10
        with pytest.raises(InvalidParams, match="out of range"):
            ep.young_representative(A, orbit, 2, 3)


class TestPakSequence:
    def test_221(self):
        assert ep.pak_sequence_check(2, 2, 1) == ((1, 2, 2, 1), True, True)

    def test_r_above_min_is_all_zero(self):
        seq, symmetric, unimodal = ep.pak_sequence_check(2, 3, 3)
        assert set(seq) == {0} and symmetric and unimodal

    def test_331(self):
        seq, symmetric, unimodal = ep.pak_sequence_check(3, 3, 1)
        assert symmetric and unimodal

    def test_cap(self):
        with pytest.raises(TooLarge):
            ep.pak_sequence_check(7, 7, 1)

    def test_bridge_2x2(self):
        _, q = wreath_quotient(2, 2)
        e = ep.edge_poset(q)
        assert e.poset.rank_vector == (1, 2, 2, 1)
        assert e.poset.rank_vector == tuple(
            ep.p_count(k, 2, 2, 1) for k in range(1, 5)
        )

    def test_bridge_all_small_boxes(self):
        # every box with at most 9 cells; the two degree-9 trivial wreaths
        # (1x9 and 9x1, plain S_9 giving a chain) are asserted on the count
        # side only to keep group enumeration cheap
        pairs = [
            (l, m)
            for l in range(1, 10)
            for m in range(1, 10)
            if l * m <= 9 and {l, m} != {1, 9}
        ]
        for l, m in pairs:
            _, q = wreath_quotient(l, m)
            vec = ep.edge_poset(q).poset.rank_vector
            assert vec == tuple(ep.p_count(k, l, m, 1) for k in range(1, l * m + 1))
        for k in range(1, 10):
            assert ep.p_count(k, 1, 9, 1) == 1 == ep.p_count(k, 9, 1, 1)
