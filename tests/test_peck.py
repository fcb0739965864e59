from fractions import Fraction

import pytest
from hypothesis import given

import edgeposets as ep
from edgeposets.catalog import fig1_poset, fig2_poset
from edgeposets.errors import InvalidChainDecomposition, InvalidParams
from edgeposets import peck
from edgeposets.peck import ExactMatrix

from conftest import graded_posets, quotient_edge_poset, random_graded_poset, shuffle_poset


def comparability_flow_d(P, k):
    """Reference d_k: the per-k flow on the split-element comparability
    network (an arc out_u -> in_v for every u < v), stopped once a new chain
    would cover at most k elements."""
    n = P.n
    net = peck._MinCostFlow(2 * n + 2)
    s, t = 2 * n, 2 * n + 1
    for v in range(n):
        net.add(s, 2 * v, 1, 0)
        net.add(2 * v, 2 * v + 1, 1, -1)
        net.add(2 * v + 1, t, 1, 0)
    for u in range(n):
        for v in range(n):
            if u != v and P.leq(u, v):
                net.add(2 * u + 1, 2 * v, 1, 0)
    overflow = 0
    while (cost := net.augment_unit(s, t)) is not None and -cost > k:
        overflow += -cost - k
    return n - overflow


def fraction_rank(entries):
    """Independent rank oracle: plain Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in entries]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                for j in range(c, cols):
                    m[i][j] -= f * m[rank][j]
        rank += 1
    return rank


class TestExactMatrix:
    def test_identity_rank(self):
        assert ExactMatrix([[1, 0], [0, 1]]).rank() == 2

    def test_singular(self):
        assert ExactMatrix([[1, 2], [2, 4]]).rank() == 1

    def test_zero_dims(self):
        assert ExactMatrix([], cols=3).rank() == 0

    def test_cols_must_match_the_rows(self):
        assert ExactMatrix([[1, 2]], cols=2).cols == 2
        with pytest.raises(InvalidParams):
            ExactMatrix([[1, 2]], cols=3)

    def test_cols_must_not_be_negative(self):
        with pytest.raises(InvalidParams):
            ExactMatrix([], cols=-1)

    @pytest.mark.parametrize("entry", [1.5, 2.0, True, "2", None])
    def test_entries_must_be_ints(self, entry):
        with pytest.raises(InvalidParams):
            ExactMatrix([[entry, 2]])

    def test_rank_matches_fraction_elimination(self, rng):
        p = peck.RANK_PRIME
        cases = [
            [[p, 2 * p], [-p, 3 * p]],  # rank 2, but 0 mod p
            [[999, 1000], [1998, 2000], [-999, -1000]],  # kernel (1000, -999)
        ]
        for _ in range(40):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            cases.append([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        for entries in cases:
            assert ExactMatrix(entries).rank() == fraction_rank(entries)


def reference_echelon_mod_p(rows, cols):
    """The column-at-a-time echelon form the blocked _echelon_mod_p replaced:
    every remaining row is read at every column and shifted by one slot.  Its
    pivot list is the one _echelon_mod_p must return."""
    p = peck.RANK_PRIME
    mask = (1 << 64) - 1
    rest = rows
    pivots = []
    for c in range(cols):
        pivot = None
        keep = []
        for row in rest:
            f = (row & mask) % p
            if f:
                if pivot is None:
                    pivot = peck._reduce_packed(row, cols - c, pow(f, -1, p))
                    pivots.append((c, pivot))
                    continue
                row += (p - f) * pivot
            keep.append(row >> 64)
        rest = keep
        if not rest:
            break
    return pivots


def reference_kernel_mod_p(pivots, cols):
    """The back substitution _kernel_mod_p replaced, reading every slot of
    every pivot row's tail."""
    p = peck.RANK_PRIME
    pivot_cols = {c for c, _ in pivots}
    free = [c for c in range(cols) if c not in pivot_cols]
    value = [0] * cols
    for t, c in enumerate(free):
        value[c] = 1 << (64 * t)
    for c, row in reversed(pivots):
        tail = peck._unpack(row, cols - c)[1:]
        acc = sum((p - a) * v for a, v in zip(tail, value[c + 1:]) if a and v)
        value[c] = peck._reduce_packed(acc, len(free))
    columns = [peck._unpack(v, len(free)) for v in value]
    return list(zip(*columns))


def random_packed_rows(rng, rows, cols, rank):
    """Packed rows of a random rows x cols matrix mod p of rank at most
    `rank`, with small entries (so pivots often vanish after elimination),
    zero rows, and some zero entries stored as nonzero multiples of p."""
    p = peck.RANK_PRIME
    basis = [[rng.choice((0, 0, 1, 2, rng.randrange(p))) for _ in range(cols)] for _ in range(rank)]
    packed = []
    for _ in range(rows):
        coeffs = [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in basis]
        entries = [sum(a * b[j] for a, b in zip(coeffs, basis)) % p for j in range(cols)]
        packed.append(peck._pack([x or p * rng.choice((0, 0, 0, 1, 7)) for x in entries]))
    return packed


SHAPES = [(rows, cols) for cols in (0, 1, 7, 8, 9, 16, 17, 67) for rows in (0, 1, cols // 2, cols, cols + 5)]


class TestEchelonAndKernel:
    def test_blocked_echelon_matches_reference(self, rng):
        for rows, cols in SHAPES:
            for rank in {0, 1, min(rows, cols) // 2, min(rows, cols)}:
                for _ in range(3):
                    packed = random_packed_rows(rng, rows, cols, rank)
                    expected = reference_echelon_mod_p(packed, cols)
                    assert peck._echelon_mod_p(list(packed), cols) == expected
                    assert len(expected) <= rank

    def test_multiples_of_p_are_not_pivots(self):
        p = peck.RANK_PRIME
        rows = [peck._pack([p, 3 * p, 5]), peck._pack([2, 0, 2 * p]), peck._pack([p, 1, 0])]
        expected = reference_echelon_mod_p(rows, 3)
        assert [c for c, _ in expected] == [0, 1, 2]
        assert peck._echelon_mod_p(list(rows), 3) == expected

    def test_kernel_matches_reference(self, rng):
        p = peck.RANK_PRIME
        checked = 0
        for rows, cols in SHAPES:
            for rank in {0, 1, min(rows, cols) // 2}:
                packed = random_packed_rows(rng, rows, cols, rank)
                pivots = reference_echelon_mod_p(packed, cols)
                if len(pivots) == cols:
                    continue
                kernel = peck._kernel_mod_p(pivots, cols)
                assert kernel == reference_kernel_mod_p(pivots, cols)
                for v in kernel:
                    for row in packed:
                        assert sum(a * x for a, x in zip(peck._unpack(row, cols), v)) % p == 0
                checked += 1
        assert checked > 50


def dense_lefschetz_power(P, i):
    """U^{n-2i} from rank i to rank n-i as a product of 0/1 cover matrices
    over the integers: the oracle for lefschetz_power_matrix's chain counts."""
    by_rank = P.elements_by_rank
    power = [[int(x == y) for x in by_rank[i]] for y in by_rank[i]]
    for r in range(i, P.max_rank - i):
        step = [[int((x, y) in P.cover_set) for x in by_rank[r]] for y in by_rank[r + 1]]
        cols = list(zip(*power))
        power = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in step]
    return power


def lefschetz_matrices(P):
    """Every Lefschetz power of P, each checked entry for entry against the
    dense product of cover matrices."""
    matrices = [POWER(P, i) for i in range((P.max_rank + 1) // 2)]
    for i, M in enumerate(matrices):
        assert M.entries == dense_lefschetz_power(P, i)
    return matrices


BAREISS = ExactMatrix.rank  # the oracles, kept before any monkeypatch
POWER = peck.lefschetz_power_matrix


@pytest.fixture
def fallbacks(monkeypatch):
    """Dense Lefschetz powers that lefschetz_power_rank fell back to building,
    and the matrices ExactMatrix.rank then ranked by Bareiss elimination, in
    call order."""
    calls = []

    def power(P, i):
        calls.append(POWER(P, i))
        return calls[-1]

    monkeypatch.setattr(ExactMatrix, "rank", lambda m: calls.append(m) or BAREISS(m))
    monkeypatch.setattr(peck, "lefschetz_power_matrix", power)
    return calls


def certified_drops(posets, fallbacks):
    """Check the certified rank of every Lefschetz power of each poset,
    lefschetz_power_rank on packed chain counts mod p, against the Bareiss
    oracle on the dense power, with no fallback.  The blocked echelon form of
    each power's packed rows must equal the reference's.  Returns how many
    powers were rank-deficient (settled by kernel certificates)."""
    drops = 0
    for P in posets:
        ranks = [peck.lefschetz_power_rank(P, i) for i in range((P.max_rank + 1) // 2)]
        for i, (M, rank) in enumerate(zip(lefschetz_matrices(P), ranks, strict=True)):
            assert rank == BAREISS(M)
            drops += rank < min(M.rows, M.cols)
            rows = peck._chain_counts_mod_p(P, i)
            assert peck._echelon_mod_p(list(rows), M.cols) == reference_echelon_mod_p(rows, M.cols)
        assert fallbacks == []
    return drops


def complete_layered(width, ranks):
    """`ranks` antichains of `width` elements, each element covering every
    element of the rank below."""
    return ep.GradedPoset(
        [r for r in range(ranks) for _ in range(width)],
        [
            (r * width + a, (r + 1) * width + b)
            for r in range(ranks - 1)
            for a in range(width)
            for b in range(width)
        ],
    )


class TestModularRank:
    def test_boolean_edge_and_h_posets(self, fallbacks):
        posets = [ep.edge_poset(ep.boolean_algebra(n)).poset for n in range(1, 8)]
        posets += [ep.h_poset(ep.boolean_algebra(n)).poset for n in range(2, 7)]
        certified_drops(posets, fallbacks)

    def test_sweep_quotient_edge_posets(self, fallbacks):
        posets = [quotient_edge_poset(G) for n in range(1, 6) for G in ep.subgroup_sweep(n)]
        assert certified_drops(posets, fallbacks) > 0

    def test_random_graded_posets(self, rng, fallbacks):
        posets = [random_graded_poset(rng, max_ranks=6, max_width=8) for _ in range(250)]
        assert certified_drops(posets, fallbacks) > 50

    def test_relabelled_posets_keep_their_ranks(self, rng, fallbacks):
        # a seeded permutation of the element indices changes the slot order,
        # and each rank drop must still be certified through it
        posets = [ep.edge_poset(ep.boolean_algebra(5)).poset, ep.h_poset(ep.boolean_algebra(5)).poset]
        posets += [quotient_edge_poset(G) for n in range(1, 6) for G in ep.subgroup_sweep(n)]
        posets += [random_graded_poset(rng, max_ranks=6, max_width=8) for _ in range(250)]
        for P in posets:
            Q = shuffle_poset(rng, P)
            n = (P.max_rank + 1) // 2
            assert [peck.lefschetz_power_rank(Q, i) for i in range(n)] == [
                peck.lefschetz_power_rank(P, i) for i in range(n)
            ]
        assert fallbacks == []

    def test_chain_counts_past_64_bits_are_reduced(self, fallbacks):
        # 64^11 chains join each bottom and top element: the walk from rank 0
        # reduces mid-way, before a slot could pass 2^63, and again at the end
        # (the packed rows follow the slot order, so the oracle is permuted too)
        P = complete_layered(64, 13)
        p = peck.RANK_PRIME
        order = peck._slot_order(P)
        for i in range(6):
            M = POWER(P, i)
            assert M.entries[0][0] == 64 ** (11 - 2 * i)
            rows = peck._chain_counts_mod_p(P, i)
            cols = [x - 64 * i for x in order[i]]
            assert [list(peck._unpack(row, 64)) for row in rows] == [
                [M.entries[y - 64 * (12 - i)][x] % p for x in cols] for y in order[12 - i]
            ]
            assert peck.lefschetz_power_rank(P, i) == BAREISS(M) == 1
        assert fallbacks == []

    @pytest.mark.parametrize(
        "forged", [lambda v: None, lambda v: [(0, 1)]], ids=["none", "wrong-vector"]
    )
    def test_failed_kernel_certificate_falls_back(self, forged, fallbacks, monkeypatch):
        # every rank drop must then reach Bareiss elimination on the dense power
        monkeypatch.setattr(peck, "_integer_vector", forged)
        P = complete_layered(3, 4)
        ranks = [peck.lefschetz_power_rank(P, i) for i in range(2)]
        built, ranked = fallbacks[::2], fallbacks[1::2]
        assert len(fallbacks) == 4 and all(a is b for a, b in zip(built, ranked))
        assert ranks == [BAREISS(M) for M in built] == [1, 1]

    def test_entries_all_multiples_of_p_fall_back(self, fallbacks):
        # a binary ladder: A_r and B_r each lie on N_r chains from the bottom,
        # O_r on one, and A_{r+1}, B_{r+1} cover A_r, B_r (and O_r for a one
        # bit), so N_{r+1} = 2 N_r + bit; the top covers A_20 alone, on p
        # chains.  U^21 is [[p]], rank 0 mod p, and its mod-p kernel vector
        # e_1 pushes up to p, not 0, so the dense power is built and ranked
        p = peck.RANK_PRIME
        bits = bin(p)[3:]  # after the leading one, which is N_1 = 1
        ranks, covers = [0], []
        a, b, o = 1, 2, 3  # A_1, B_1, O_1 all cover the bottom
        ranks += [1, 1, 1]
        covers += [(0, a), (0, b), (0, o)]
        for r, bit in enumerate(bits, start=2):
            na, nb, no = len(ranks), len(ranks) + 1, len(ranks) + 2
            ranks += [r, r, r]
            below = (a, b, o) if bit == "1" else (a, b)
            covers += [(x, y) for y in (na, nb) for x in below] + [(o, no)]
            a, b, o = na, nb, no
        ranks.append(len(bits) + 2)
        covers.append((a, len(ranks) - 1))
        P = ep.GradedPoset(ranks, covers)
        assert P.rank_vector == (1,) + (3,) * 20 + (1,)
        assert peck.lefschetz_power_rank(P, 0) == 1
        built, ranked = fallbacks
        assert built is ranked and built.entries == [[p]]

    def test_kernel_beyond_reconstruction_falls_back(self, fallbacks):
        # two bottoms, 999 middle elements over the first and 1000 over the
        # second, and two tops over all 1999: U^2 is [[999, 1000], [999, 1000]],
        # whose kernel (1000, -999) has no n/d with |n|, d <= 724 mod p, so
        # the dense power is built once and ranked once by Bareiss elimination
        bottom_of = [0] * 999 + [1] * 1000  # the bottom each middle element covers
        tops = (2 + len(bottom_of), 3 + len(bottom_of))
        P = ep.GradedPoset(
            [0, 0] + [1] * len(bottom_of) + [2, 2],
            [(x, 2 + m) for m, x in enumerate(bottom_of)]
            + [(2 + m, t) for m in range(len(bottom_of)) for t in tops],
        )
        assert peck._RECON_BOUND < 999
        assert peck.lefschetz_power_rank(P, 0) == 1
        assert ep.is_unitary_peck(P) is False
        built, ranked = fallbacks
        assert built is ranked and built.entries == [[999, 1000], [999, 1000]]


class TestRankProfile:
    def test_b6(self):
        assert ep.rank_profile(ep.boolean_algebra(6)) == (True, True)

    def test_fig2_edge(self):
        P = ep.edge_poset(fig2_poset()).poset
        assert P.rank_vector == (3, 2, 3)
        assert ep.rank_profile(P) == (True, False)

    def test_asymmetric_unimodal(self):
        P = ep.GradedPoset([0, 1, 1, 2, 2], [(0, 1), (0, 2), (1, 3), (2, 4)])
        assert P.rank_vector == (1, 2, 2)
        assert ep.rank_profile(P) == (False, True)

    def test_neither(self):
        P = ep.GradedPoset([0, 0, 0, 1, 2, 2], [(0, 3), (3, 4), (3, 5)])
        assert P.rank_vector == (3, 1, 2)
        assert ep.rank_profile(P) == (False, False)


class TestLefschetz:
    def test_b2_bottom(self):
        assert ep.lefschetz_power_rank(ep.boolean_algebra(2), 0) == 1

    def test_b4_middle(self):
        assert ep.lefschetz_power_rank(ep.boolean_algebra(4), 1) == 4

    def test_fig2_bottom(self):
        assert ep.lefschetz_power_rank(fig2_poset(), 0) == 2

    def test_out_of_range(self):
        with pytest.raises(InvalidParams):
            ep.lefschetz_power_rank(ep.boolean_algebra(4), 2)

    def test_cover_matrix_shape(self):
        # n - 2i = 1: a single step, the 0/1 cover matrix from rank 1 to rank 2
        U = peck.lefschetz_power_matrix(ep.boolean_algebra(3), 1)
        assert (U.rows, U.cols) == (3, 3)
        assert sum(map(sum, U.entries)) == 6


class TestUnitaryPeck:
    def test_h_b4(self):
        assert ep.is_unitary_peck(ep.h_poset(ep.boolean_algebra(4)).poset)

    def test_e_b4(self):
        assert ep.is_unitary_peck(ep.edge_poset(ep.boolean_algebra(4)).poset)

    def test_two_rank_antichain_fails(self):
        P = ep.GradedPoset([0, 1], [])
        assert not ep.is_unitary_peck(P)

    def test_fig2(self):
        assert ep.is_unitary_peck(fig2_poset())

    def test_asymmetric_poset_takes_no_rank_and_draws_no_weight(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("work done on an asymmetric poset")

        P = ep.edge_poset(fig1_poset()).poset
        assert P.rank_vector == (2, 3, 2, 2)
        monkeypatch.setattr(peck, "_power_rank", forbidden)
        monkeypatch.setattr(peck, "_cover_weights", forbidden)
        assert ep.is_unitary_peck(P) is False
        assert peck.weighted_lefschetz_certificate(P) is False

    @given(graded_posets(max_ranks=4, max_width=3))
    def test_unitary_implies_peck_ingredients(self, P):
        if ep.is_unitary_peck(P):
            sym, uni = ep.rank_profile(P)
            assert sym and uni
            assert ep.is_strongly_sperner(P)


class TestAntichainUnions:
    def test_b3_values(self):
        b3 = ep.boolean_algebra(3)
        assert ep.max_k_antichain_union(b3, 1) == 3
        assert ep.max_k_antichain_union(b3, 2) == 6

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_chain(self, k):
        assert ep.max_k_antichain_union(ep.chain(5), k) == min(k, 5)

    def test_k_validation(self):
        with pytest.raises(InvalidParams):
            ep.max_k_antichain_union(ep.chain(2), 0)

    def test_memo_reruns_oracle_at_higher_threshold(self, monkeypatch):
        flows, oracles = [], []
        real_flow, real_table = peck._MinCostFlow, peck._antichain_union_table
        monkeypatch.setattr(peck, "_MinCostFlow", lambda n: flows.append(n) or real_flow(n))
        monkeypatch.setattr(
            peck, "_antichain_union_table", lambda P: oracles.append(P) or real_table(P)
        )
        b3 = ep.boolean_algebra(3)
        assert ep.max_k_antichain_union(b3, 2, oracle_threshold=0) == 6
        assert ep.max_k_antichain_union(b3, 2, oracle_threshold=0) == 6
        assert (len(flows), len(oracles)) == (1, 0)
        # the memoised d_2 was never cross-checked, so a threshold that
        # covers |B_3| = 8 must run the exhaustive oracle
        assert ep.max_k_antichain_union(b3, 2, oracle_threshold=8) == 6
        assert len(oracles) == 1

    def test_one_network_per_poset(self, monkeypatch):
        flows = []
        real_flow = peck._MinCostFlow
        monkeypatch.setattr(peck, "_MinCostFlow", lambda n: flows.append(n) or real_flow(n))
        P = ep.edge_poset(ep.boolean_algebra(4)).poset
        assert P.n == 32 > peck.DEFAULT_ORACLE_THRESHOLD
        assert ep.is_strongly_sperner(P)
        assert ep.is_peck(P)
        table = [ep.max_k_antichain_union(P, k) for k in range(1, len(P.rank_vector) + 2)]
        assert table == [12, 24, 28, 32, 32]
        assert flows == [2 * P.n + 2]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ep.edge_poset(ep.boolean_algebra(5)).poset,
            lambda: ep.h_poset(ep.boolean_algebra(5)).poset,
            lambda: quotient_edge_poset(ep.cyclic(6)),
            lambda: quotient_edge_poset(ep.dihedral(6)),
            lambda: quotient_edge_poset(
                ep.PermGroup(6, [ep.Permutation([1, 0, 3, 2, 4, 5])])
            ),
        ],
        ids=["E(B5)", "H(B5)", "E(B6/C6)", "E(B6/D6)", "E(B6/<(12)(34)>)"],
    )
    def test_cover_flow_matches_comparability_flow(self, make):
        # above the exhaustive oracle's reach: the per-k comparability-network
        # flow is the reference for the whole d-table
        P = make()
        assert P.n > peck.DEFAULT_ORACLE_THRESHOLD
        ks = range(1, len(P.rank_vector) + 1)
        assert [ep.max_k_antichain_union(P, k) for k in ks] == [
            comparability_flow_d(P, k) for k in ks
        ]

    @given(graded_posets(max_ranks=4, max_width=3))
    def test_flow_matches_brute_force(self, P):
        # the call itself cross-checks below the oracle threshold; compare
        # explicitly as well
        for k in range(1, len(P.rank_vector) + 2):
            assert ep.max_k_antichain_union(P, k) == ep.brute_force_k_antichain_union(P, k)

    @given(graded_posets(max_ranks=4, max_width=3))
    def test_monotone_and_capped(self, P):
        values = [ep.max_k_antichain_union(P, k) for k in range(1, len(P.rank_vector) + 2)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(v <= P.n for v in values)
        assert values[-1] == P.n


class TestSperner:
    def test_b4(self):
        assert ep.is_strongly_sperner(ep.boolean_algebra(4))

    def test_chain(self):
        assert ep.is_strongly_sperner(ep.chain(6))

    def test_broken_diamond_fails(self):
        # one 3-chain plus an isolated bottom and an isolated top: the three
        # chain-free elements are an antichain of size 3 > every rank size 2
        P = ep.GradedPoset([0, 0, 1, 2, 2], [(0, 2), (2, 3)])
        assert P.rank_vector == (2, 1, 2)
        assert ep.max_k_antichain_union(P, 1) == 3
        assert not ep.is_strongly_sperner(P)


class TestPeck:
    def test_quotient_b5_d10(self):
        q = ep.quotient(ep.induced_bn_action(ep.dihedral(5)))
        assert ep.is_peck(q.poset)

    def test_e_fig2_not_peck(self):
        assert not ep.is_peck(ep.edge_poset(fig2_poset()).poset)

    def test_single_antichain(self):
        assert ep.is_peck(ep.antichain(5))

    @given(graded_posets(max_ranks=4, max_width=3))
    def test_duality_invariance(self, P):
        assert ep.is_peck(P) == ep.is_peck(P.dual())

    def test_stanley_quotient_instances(self):
        # quotients of the (unitary Peck) boolean algebra are Peck
        for G in (ep.cyclic(4), ep.cyclic(6), ep.dihedral(6), ep.symmetric(5)):
            q = ep.quotient(ep.induced_bn_action(G))
            assert ep.is_peck(q.poset)


def reference_is_peck(P):
    """Peck as is_peck decided it before peck_report: rank profile (cheap
    reject), then the unitary fast path, then the flow."""
    symmetric, unimodal = ep.rank_profile(P)
    if not (symmetric and unimodal):
        return False
    if ep.is_unitary_peck(P):
        return True
    return ep.is_strongly_sperner(P)


def assert_report_matches_definitions(P):
    report = ep.peck_report(P)
    symmetric, unimodal = ep.rank_profile(P)
    assert report == {
        "symmetric": symmetric,
        "unimodal": unimodal,
        "unitary_peck": ep.is_unitary_peck(P),
        "strongly_sperner": ep.is_strongly_sperner(P),
        "peck": reference_is_peck(P),
    }
    assert list(report) == ["symmetric", "unimodal", "unitary_peck", "strongly_sperner", "peck"]
    assert ep.is_peck(P) is report["peck"]
    return report


class TestPeckReport:
    @given(graded_posets(max_ranks=4, max_width=3))
    def test_graded_posets(self, P):
        assert_report_matches_definitions(P)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_e_and_h_of_boolean(self, n):
        B = ep.boolean_algebra(n)
        for P in (ep.edge_poset(B).poset, ep.h_poset(B).poset):
            assert assert_report_matches_definitions(P)["peck"]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sweep_quotient_edge_posets(self, n):
        for G in ep.subgroup_sweep(n):
            assert_report_matches_definitions(quotient_edge_poset(G))

    def test_e_fig2_not_peck(self):
        report = assert_report_matches_definitions(ep.edge_poset(fig2_poset()).poset)
        assert not report["peck"]


def weighted_power(P, i, weights):
    """Dense oracle: entry (y, x) sums, over the saturated chains from the
    rank-i element x up to the rank-(n-i) element y, the product of the cover
    weights along the chain (weights[z] aligned with P.down[z])."""
    n = P.max_rank
    rows = {}
    for y in P.elements_by_rank[n - i]:
        counts = {y: 1}
        for _ in range(n - 2 * i):
            below = {}
            for z, c in counts.items():
                for x, w in zip(P.down[z], weights[z]):
                    below[x] = below.get(x, 0) + c * w
            counts = below
        rows[y] = counts
    return rows


class TestWeightedLefschetz:
    @pytest.mark.parametrize("make", [
        lambda: complete_layered(8, 9),  # weight sums of 2^19 per step: reduced mid-walk
        lambda: ep.edge_poset(ep.boolean_algebra(5)).poset,
        lambda: quotient_edge_poset(ep.PermGroup(6, [ep.Permutation.from_cycles("(1 2)(3 4)", 6)])),
    ], ids=["layered", "E(B5)", "E(B6/<(12)(34)>)"])
    def test_weighted_chain_counts_match_the_dense_power(self, make):
        P = make()
        weights = peck._cover_weights(P)
        p = peck.RANK_PRIME
        order = peck._slot_order(P)
        for i in range((P.max_rank + 1) // 2):
            dense = weighted_power(P, i, weights)
            rows = peck._chain_counts_mod_p(P, i, weights)
            assert [list(peck._unpack(row, len(order[i]))) for row in rows] == [
                [dense[y].get(x, 0) % p for x in order[i]] for y in order[P.max_rank - i]
            ]

    def test_unit_weights_are_the_unweighted_walk(self, rng):
        posets = [random_graded_poset(rng, max_ranks=6, max_width=8) for _ in range(50)]
        for P in posets + [complete_layered(64, 13)]:
            ones = [[1] * len(xs) for xs in P.down]
            for i in range((P.max_rank + 1) // 2):
                assert peck._chain_counts_mod_p(P, i, ones) == peck._chain_counts_mod_p(P, i)

    def test_weights_are_seeded_and_in_range(self):
        P = ep.edge_poset(ep.boolean_algebra(5)).poset
        weights = peck._cover_weights(P)
        assert weights == peck._cover_weights(ep.edge_poset(ep.boolean_algebra(5)).poset)
        assert [len(w) for w in weights] == [len(xs) for xs in P.down]
        flat = [w for ws in weights for w in ws]
        assert 1 <= min(flat) and max(flat) <= 1 << peck.WEIGHT_BITS
        assert len(set(flat)) > len(flat) // 2

    @pytest.mark.parametrize("n,not_unitary", [(1, 0), (2, 1), (3, 0), (4, 4), (5, 3), (6, 16)])
    def test_sweep_classes_match_the_flow(self, n, not_unitary, monkeypatch):
        # the seeded draw certifies every class at n <= 6, so peck_report
        # never runs the flow; a certificate is a proof, so the flow, and the
        # exhaustive oracle up to 12 elements, must agree with it
        flows = []
        real = peck._MinCostFlow
        monkeypatch.setattr(peck, "_MinCostFlow", lambda n: flows.append(n) or real(n))
        posets = [quotient_edge_poset(G) for G in ep.subgroup_sweep(n)]
        reports = [ep.peck_report(P) for P in posets]
        assert flows == []
        assert sum(not r["unitary_peck"] for r in reports) == not_unitary
        for P, report in zip(posets, reports):
            assert peck.weighted_lefschetz_certificate(P)
            assert report["peck"] and report["strongly_sperner"]
            assert ep.is_strongly_sperner(P)
            if P.n <= peck.DEFAULT_ORACLE_THRESHOLD:
                largest = sorted(P.rank_vector, reverse=True)
                assert all(
                    ep.brute_force_k_antichain_union(P, k) == sum(largest[:k])
                    for k in range(1, len(largest) + 1)
                )

    def test_e_fig2_fails_the_certificate_and_the_flow_decides(self, monkeypatch):
        # rank vector (3, 2, 3): symmetric, not unimodal, so no order-raising
        # map has a bijective U^2, yet E(fig2) is strongly Sperner
        P = ep.edge_poset(fig2_poset()).poset
        assert not peck.weighted_lefschetz_certificate(P)
        flows = []
        real = peck._MinCostFlow
        monkeypatch.setattr(peck, "_MinCostFlow", lambda n: flows.append(n) or real(n))
        report = ep.peck_report(P)
        assert report["strongly_sperner"] and not report["peck"]
        assert len(flows) == 1

    def test_asymmetric_ranks_fail_the_certificate(self):
        assert not peck.weighted_lefschetz_certificate(ep.GradedPoset([0, 1, 1], [(0, 1), (0, 2)]))


class TestSCD:
    def test_b1(self):
        D = ep.scd_boolean(1)
        assert D.chains == ((0, 1),)

    def test_b3_chain_lengths(self):
        D = ep.scd_boolean(3)
        assert sorted(len(c) for c in D.chains) == [2, 2, 4]

    def test_b5_starting_ranks(self):
        D = ep.scd_boolean(5)
        starts = [D.host.ranks[c[0]] for c in D.chains]
        assert [starts.count(r) for r in range(3)] == [1, 4, 5]

    def test_validation_rejects_non_partition(self):
        with pytest.raises(InvalidChainDecomposition):
            ep.ChainDecomposition(ep.chain(3), ((0, 1),))

    def test_validation_rejects_asymmetric(self):
        P = ep.chain(3)
        with pytest.raises(InvalidChainDecomposition):
            ep.ChainDecomposition(P, ((0, 1), (2,)))

    def test_validation_rejects_unsaturated(self):
        P = ep.GradedPoset([0, 1, 1], [(0, 1)])
        with pytest.raises(InvalidChainDecomposition):
            ep.ChainDecomposition(P, ((0, 2), (1,)))

    def test_identity_transport(self):
        D = ep.scd_boolean(3)
        T = ep.scd_transport(D, ep.PosetMorphism.identity(D.host))
        assert T.chains == D.chains

    def test_transport_rejects_relation_loss(self):
        # collapsing a 2-chain onto an antichain breaks saturation
        loose = ep.GradedPoset([0, 1], [])
        D = ep.scd_boolean(1)
        with pytest.raises(InvalidParams):
            ep.scd_transport(D, ep.PosetMorphism.identity(loose))

    def test_h_b0_has_no_chains(self):
        D = ep.scd_h_boolean(ep.h_poset(ep.boolean_algebra(0)))
        assert D.host.n == 0 and D.chains == ()

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_h_to_e_transport(self, n):
        D = ep.scd_h_boolean(ep.h_poset(ep.boolean_algebra(n)))
        f = ep.h_to_e_bijection(ep.boolean_algebra(n))
        T = ep.scd_transport(D, f)
        assert len(T.chains) == len(D.chains)
