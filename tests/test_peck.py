from fractions import Fraction

import pytest
from hypothesis import given

import edgeposets as ep
from edgeposets.catalog import fig1_poset, fig2_poset
from edgeposets.errors import InvalidChainDecomposition, InvalidParams
from edgeposets import peck
from edgeposets.peck import ExactMatrix

from conftest import graded_posets, quotient_edge_poset, random_graded_poset


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

    def test_rank_matches_fraction_elimination(self, rng):
        for _ in range(40):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            entries = [
                [rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)
            ]
            assert ExactMatrix(entries).rank() == fraction_rank(entries)
            assert ExactMatrix(entries).bareiss_rank() == fraction_rank(entries)


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
    matrices = [peck.lefschetz_power_matrix(P, i) for i in range((P.max_rank + 1) // 2)]
    for i, M in enumerate(matrices):
        assert M.entries == dense_lefschetz_power(P, i)
    return matrices


BAREISS = ExactMatrix.bareiss_rank  # the oracle, kept before any monkeypatch


@pytest.fixture
def fallbacks(monkeypatch):
    """Matrices whose rank() fell back to Bareiss elimination."""
    calls = []
    monkeypatch.setattr(ExactMatrix, "bareiss_rank", lambda m: calls.append(m) or BAREISS(m))
    return calls


def certified_drops(matrices, fallbacks):
    """Check rank() against the Bareiss oracle with no fallback; returns how
    many matrices were rank-deficient (settled by kernel certificates)."""
    drops = 0
    for M in matrices:
        rank = M.rank()
        assert fallbacks == []
        assert rank == BAREISS(M)
        drops += rank < min(M.rows, M.cols)
    return drops


class TestModularRank:
    def test_boolean_edge_and_h_posets(self, fallbacks):
        matrices = [
            M
            for n in range(1, 8)
            for M in lefschetz_matrices(ep.edge_poset(ep.boolean_algebra(n)).poset)
        ]
        matrices += [
            M
            for n in range(2, 7)
            for M in lefschetz_matrices(ep.h_poset(ep.boolean_algebra(n)).poset)
        ]
        certified_drops(matrices, fallbacks)

    def test_sweep_quotient_edge_posets(self, fallbacks):
        matrices = [
            M
            for n in range(1, 6)
            for G in ep.subgroup_sweep(n)
            for M in lefschetz_matrices(quotient_edge_poset(G))
        ]
        assert certified_drops(matrices, fallbacks) > 0

    def test_random_graded_posets(self, rng, fallbacks):
        matrices = [
            M
            for _ in range(250)
            for M in lefschetz_matrices(random_graded_poset(rng, max_ranks=6, max_width=8))
        ]
        assert certified_drops(matrices, fallbacks) > 50

    def test_entries_all_multiples_of_p_fall_back(self, fallbacks):
        # rank 0 mod p, and the mod-p kernel vectors e_1, e_2 fail M v = 0
        p = peck.RANK_PRIME
        M = ExactMatrix([[p, 2 * p], [-p, 3 * p]])
        assert M.rank() == 2
        assert fallbacks == [M]

    def test_kernel_beyond_reconstruction_falls_back(self, fallbacks):
        # the kernel is spanned by (1000, -999): no n/d with |n|, d <= 724
        M = ExactMatrix([[999, 1000], [1998, 2000], [-999, -1000]])
        assert M.rank() == 1
        assert fallbacks == [M]


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
