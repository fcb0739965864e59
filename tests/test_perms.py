import copy
import itertools
import math
import random

import pytest

import edgeposets as ep
from edgeposets import actions, cli, perms
from edgeposets.catalog import small_group_tables, table_from_group, tree8, tree10
from edgeposets.errors import (
    GroupTooLarge,
    InvalidGenerators,
    InvalidParams,
    NotAGroup,
    NotCommuting,
    NotInvolutions,
)
from edgeposets.perms import (
    PermGroup,
    Permutation,
    _tuple_close,
    is_primitive,
    minimal_generators,
    parse_generator_lines,
    schreier_sims_order,
)

from conftest import random_graded_poset


class TestPermutation:
    def test_composition_order(self):
        a = Permutation.from_cycles("(1 2)", degree=3)
        b = Permutation.from_cycles("(2 3)", degree=3)
        # (a * b)(x) = a(b(x)): 2 -> 3 under b, then fixed by a
        assert (a * b)(1) == 2

    def test_inverse(self):
        g = Permutation.from_cycles("(1 2 3)(4 5)")
        assert (g * g.inverse()).is_identity()

    def test_cycle_string_round_trip(self):
        for text in ["(1 2 3)(4 5)", "(1 3)", "()"]:
            g = Permutation.from_cycles(text, degree=5)
            assert Permutation.from_cycles(g.cycle_string(), degree=5) == g

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidGenerators):
            Permutation.from_cycles("1 2 3")
        with pytest.raises(InvalidGenerators):
            Permutation.from_cycles("(1 1)")

    def test_not_bijection(self):
        with pytest.raises(InvalidParams):
            Permutation([0, 0, 1])


class TestGenerate:
    def test_cyclic_order(self):
        G = ep.PermGroup(4, [Permutation.from_cycles("(1 2 3 4)")])
        assert G.order == 4

    def test_dihedral_on_five_points(self):
        G = ep.dihedral(5)
        assert G.order == 10

    def test_idempotent(self):
        G = ep.dihedral(4)
        again = ep.PermGroup(G.degree, list(G.elements))
        assert again.element_set == G.element_set

    def test_cap_only_where_enumerated(self, monkeypatch):
        # S_10 (order 3,628,800) is built and acted with freely; only
        # enumerating it is refused, from its order, before any closure
        G = ep.symmetric(10)
        A = ep.induced_bn_action(G)
        assert G.order == 3628800 and A.diagonal_order == G.order

        def refuse(*args):
            raise AssertionError("_tuple_close called over the cap")

        monkeypatch.setattr(perms, "_tuple_close", refuse)
        monkeypatch.setattr(actions, "_tuple_close", refuse)
        with pytest.raises(GroupTooLarge):
            G.elements
        with pytest.raises(GroupTooLarge):
            A.element_maps

    def test_deterministic_element_order(self):
        a = ep.symmetric(3).elements
        b = ep.symmetric(3).elements
        assert a == b == tuple(sorted(a))


class TestNamedGroups:
    def test_dihedral6(self):
        G = ep.dihedral(6)
        assert G.order == 12
        assert Permutation.from_cycles("(1 2 3 4 5 6)") in G

    def test_hyperoctahedral3(self):
        assert ep.hyperoctahedral(3).order == 48

    def test_symmetric4(self):
        assert ep.symmetric(4).order == 24

    @pytest.mark.parametrize("n", [0, 1])
    def test_symmetric_below_2_is_trivial_of_degree_n(self, n):
        G = ep.symmetric(n)
        assert (G.degree, G.order, G.generators) == (n, 1, ())

    def test_elementary_abelian(self):
        G = ep.elementary_abelian_2(
            [Permutation.from_cycles("(1 2)", 4), Permutation.from_cycles("(3 4)", 4)]
        )
        assert G.order == 4
        with pytest.raises(NotInvolutions):
            ep.elementary_abelian_2([Permutation.from_cycles("(1 2 3)")])
        with pytest.raises(NotCommuting):
            ep.elementary_abelian_2(
                [Permutation.from_cycles("(1 2)", 3), Permutation.from_cycles("(2 3)", 3)]
            )

    def test_named_group_dispatch(self):
        assert ep.named_group("cyclic", 6).order == 6
        with pytest.raises(InvalidParams):
            ep.named_group("sporadic", 1)


class TestProducts:
    def test_klein_four(self):
        G = ep.direct_product(ep.symmetric(2), ep.symmetric(2))
        assert G.degree == 4 and G.order == 4

    def test_order_576_on_ten_points(self):
        G = ep.direct_product(
            ep.wreath(ep.symmetric(2), ep.symmetric(2)),
            ep.wreath(ep.symmetric(3), ep.symmetric(2)),
        )
        assert G.degree == 10 and G.order == 576

    def test_trivial_factor(self):
        G = ep.direct_product(ep.trivial(2), ep.symmetric(3))
        shifted = {tuple([0, 1] + [v + 2 for v in g.images]) for g in ep.symmetric(3).elements}
        assert {g.images for g in G.elements} == shifted

    def test_wreath_orders(self):
        assert ep.wreath(ep.symmetric(2), ep.symmetric(2)).order == 8
        assert ep.wreath(ep.symmetric(3), ep.symmetric(2)).order == 72

    def test_wreath_is_hyperoctahedral(self):
        assert (
            ep.wreath(ep.symmetric(2), ep.symmetric(3)).element_set
            == ep.hyperoctahedral(3).element_set
        )

    @pytest.mark.parametrize(
        "gm, hm", [(2, 2), (2, 3), (3, 2)]
    )
    def test_wreath_order_formula(self, gm, hm):
        G, H = ep.symmetric(gm), ep.symmetric(hm)
        assert ep.wreath(G, H).order == G.order**H.degree * H.order


class TestLeftRegular:
    def test_z2(self):
        G = ep.left_regular([[0, 1], [1, 0]])
        assert G.order == 2 and Permutation([1, 0]) in G

    def test_z4(self):
        G = ep.left_regular([[(a + b) % 4 for b in range(4)] for a in range(4)])
        assert G.order == 4 and G.degree == 4

    def test_klein_double_transpositions(self):
        tables = small_group_tables()
        G = ep.left_regular(tables["Z2xZ2"])
        nontrivial = [g for g in G.elements if not g.is_identity()]
        assert len(nontrivial) == 3
        for g in nontrivial:
            assert sorted(len(c) for c in _cycles(g)) == [2, 2]

    def test_transitive_and_free(self):
        for name, table in small_group_tables().items():
            G = ep.left_regular(table)
            assert G.order == len(table)
            # transitive: orbit of 0 is everything; free: nothing else fixes a point
            orbit = {g(0) for g in G.elements}
            assert orbit == set(range(G.degree))
            for g in G.elements:
                if not g.is_identity():
                    assert all(g(x) != x for x in range(G.degree)), name

    def test_rows_inside_the_group_so_far_are_skipped(self):
        # the kept rows generate the group of all the rows: same order and
        # canonical generator string, from at most log2(n) generators
        for name, table in small_group_tables().items():
            G = ep.left_regular(table)
            every_row = PermGroup(len(table), [Permutation(row) for row in table])
            assert G.order == every_row.order, name
            assert G.generator_string() == every_row.generator_string(), name
            assert len(G.generators) <= len(table).bit_length() - 1, name

    def test_z200(self):
        G = ep.left_regular([[(a + b) % 200 for b in range(200)] for a in range(200)])
        assert G.order == 200 and [g.images[0] for g in G.generators] == [1]

    def test_not_a_group(self):
        with pytest.raises(NotAGroup):
            ep.left_regular([[0, 1], [0, 1]])
        with pytest.raises(NotAGroup):
            # latin square whose identity row has no matching identity column
            ep.left_regular([[1, 2, 0], [0, 1, 2], [2, 0, 1]])

    def test_associativity_guard(self):
        with pytest.raises(NotAGroup):
            ep.left_regular(LOOP5)

    def test_loop_of_order_65_is_not_a_group(self):
        # LOOP5 x Z_13 is a non-associative loop of order 65; its rows
        # generate a group of order 1560
        table = [
            [LOOP5[a][c] * 13 + (b + d) % 13 for c in range(5) for d in range(13)]
            for a in range(5)
            for b in range(13)
        ]
        with pytest.raises(NotAGroup):
            ep.left_regular(table)

    def test_named_group_has_no_elementary_abelian_family(self):
        with pytest.raises(InvalidParams, match="unknown group family"):
            ep.named_group("elementary-abelian-2", "(1 2);(3 4)")


# a latin square with two-sided identity and inverses that is not associative
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def reference_is_group_table(table):
    """The group-axiom scan left_regular ran before it read the verdict off
    the order of the group its rows generate: rows and columns are
    permutations, a two-sided identity and inverses exist, and the product is
    associative (scanned here at every order, not only up to 64)."""
    n = len(table)
    rng = list(range(n))
    for row in table:
        if len(row) != n or sorted(row) != rng:
            return False
    for c in range(n):
        if sorted(table[r][c] for r in range(n)) != rng:
            return False
    ident = None
    for e in range(n):
        if all(table[e][x] == x for x in range(n)) and all(
            table[x][e] == x for x in range(n)
        ):
            ident = e
            break
    if ident is None:
        return False
    for g in range(n):
        if not any(table[g][h] == ident and table[h][g] == ident for h in range(n)):
            return False
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return False
    return True


def left_regular_accepts(table):
    try:
        ep.left_regular(table)
    except NotAGroup:
        return False
    return True


def relabel(table, sigma):
    """The table of the same product with element a renamed sigma[a]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return out


class TestLeftRegularOracle:
    """left_regular's verdict (rows are permutations, a column is the
    identity map, the rows generate a group of order n) against the
    group-axiom scan it replaced."""

    def agree(self, table):
        expected = reference_is_group_table(table)
        assert left_regular_accepts(table) == expected, table
        return expected

    def test_small_groups_relabelled_and_perturbed(self):
        rng = random.Random(14)
        verdicts = []
        for table in small_group_tables().values():
            n = len(table)
            assert self.agree(table)
            for _ in range(5):
                sigma = list(range(n))
                rng.shuffle(sigma)
                copy = relabel(table, sigma)
                assert self.agree(copy)
                for _ in range(4):
                    # swap two entries of one row: rows stay permutations
                    row = rng.choice(copy)
                    i, j = rng.randrange(n), rng.randrange(n)
                    row[i], row[j] = row[j], row[i]
                    verdicts.append(self.agree([list(r) for r in copy]))
                    row[i], row[j] = row[j], row[i]
                for _ in range(4):
                    # swap two entries anywhere in the table
                    (a, b), (c, d) = [(rng.randrange(n), rng.randrange(n)) for _ in "ab"]
                    perturbed = [list(r) for r in copy]
                    perturbed[a][b], perturbed[c][d] = perturbed[c][d], perturbed[a][b]
                    verdicts.append(self.agree(perturbed))
        assert verdicts.count(False) >= 300 and verdicts.count(True) >= 100

    def test_isotopes_of_group_tables(self):
        # rows and columns of a group table permuted: latin squares that are
        # groups, loops or quasigroups without identity
        rng = random.Random(15)
        verdicts = []
        for table in small_group_tables().values():
            n = len(table)
            for _ in range(30):
                alpha, beta = rng.sample(range(n), n), rng.sample(range(n), n)
                isotope = [[table[alpha[a]][beta[b]] for b in range(n)] for a in range(n)]
                verdicts.append(self.agree(isotope))
        assert verdicts.count(False) >= 100 and verdicts.count(True) >= 50

    def test_random_permutation_rows(self):
        rng = random.Random(16)
        verdicts = []
        for _ in range(400):
            n = rng.randint(1, 5)
            verdicts.append(self.agree([rng.sample(range(n), n) for _ in range(n)]))
        assert verdicts.count(False) >= 200 and verdicts.count(True) >= 50

    def test_order_5_loop(self):
        rng = random.Random(17)
        assert not self.agree(LOOP5)
        for _ in range(20):
            assert not self.agree(relabel(LOOP5, rng.sample(range(5), 5)))


def _cycles(g):
    seen = set()
    out = []
    for i in range(g.degree):
        if i in seen:
            continue
        cyc = [i]
        seen.add(i)
        j = g(i)
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = g(j)
        if len(cyc) > 1:
            out.append(cyc)
    return out


def _count_poset_automorphisms(P):
    """Exhaustive rank-preserving automorphism count, independent of the
    wreath-product construction.  Element-by-element backtracking from the top
    rank down, checking adjacency against already-placed neighbors."""
    order = sorted(range(P.n), key=lambda i: -P.ranks[i])
    count = 0
    mapping = {}
    used = set()

    def backtrack(pos):
        nonlocal count
        if pos == P.n:
            count += 1
            return
        x = order[pos]
        for y in range(P.n):
            if y in used or P.ranks[y] != P.ranks[x]:
                continue
            if len(P.up[x]) != len(P.up[y]) or len(P.down[x]) != len(P.down[y]):
                continue
            if any(u in mapping and (y, mapping[u]) not in P.cover_set for u in P.up[x]):
                continue
            mapping[x] = y
            used.add(y)
            backtrack(pos + 1)
            del mapping[x]
            used.remove(y)

    backtrack(0)
    return count


def recursive_tree_automorphisms(T):
    """The recursive tree_automorphisms that explicit stacks replaced, kept as
    an oracle: its generators and its order formula, with no group built."""
    enc = {}

    def walk(v):
        enc[v] = tuple(sorted(walk(c) for c in T.children[v]))
        return enc[v]

    walk(T.root)

    def sorted_children(v):
        return sorted(T.children[v], key=lambda c: (enc[c], c))

    leaf_order = {}

    def canon_leaves(v):
        if v in leaf_order:
            return leaf_order[v]
        if not T.children[v]:
            out = (v,)
        else:
            out = tuple(x for c in sorted_children(v) for x in canon_leaves(c))
        leaf_order[v] = out
        return out

    def gen_maps(v):
        out = []
        kids = sorted_children(v)
        i = 0
        while i < len(kids):
            j = i
            while j < len(kids) and enc[kids[j]] == enc[kids[i]]:
                j += 1
            members = kids[i:j]
            for m in members:
                out.extend(gen_maps(m))
            for a, b in zip(members, members[1:]):
                la, lb = canon_leaves(a), canon_leaves(b)
                swap = dict(zip(la, lb))
                swap.update(zip(lb, la))
                out.append(swap)
            i = j
        return out

    def order_formula(v):
        total = 1
        kids = sorted_children(v)
        i = 0
        while i < len(kids):
            j = i
            while j < len(kids) and enc[kids[j]] == enc[kids[i]]:
                j += 1
            mult = j - i
            sub = order_formula(kids[i])
            fact = 1
            for t in range(2, mult + 1):
                fact *= t
            total *= sub**mult * fact
            i = j
        return total

    pos = {leaf: k for k, leaf in enumerate(T.leaves)}
    gens = []
    for mapping in gen_maps(T.root):
        images = list(range(len(T.leaves)))
        for a, b in mapping.items():
            images[pos[a]] = pos[b]
        gens.append(Permutation(images))
    return tuple(gens), order_formula(T.root)


class TestRootedTrees:
    def test_star_gives_symmetric(self):
        star = ep.tree_from_children({"children": [{}, {}, {}, {}]})
        G = ep.tree_automorphisms(star)
        assert G.element_set == ep.symmetric(4).element_set

    def test_tree8(self):
        T = tree8()
        assert len(T.leaves) == 8
        G = ep.tree_automorphisms(T)
        W = ep.wreath(ep.wreath(ep.symmetric(2), ep.symmetric(2)), ep.symmetric(2))
        assert G.order == 128 and G.element_set == W.element_set

    def test_tree10(self):
        G = ep.tree_automorphisms(tree10())
        assert G.order == 576

    def test_single_node(self):
        T = ep.tree_from_children({})
        assert ep.tree_automorphisms(T).order == 1

    def test_non_uniform_leaf_depths_accepted(self):
        # one deep cherry plus a shallow leaf: leaves land at two ranks
        T = ep.tree_from_children({"children": [{"children": [{}, {}]}, {}]})
        leaf_ranks = {T.poset.ranks[leaf] for leaf in T.leaves}
        assert leaf_ranks == {0, 1}
        assert ep.tree_automorphisms(T).order == 2

    def test_order_matches_brute_force(self, rng):
        import random

        local = random.Random(7)

        def random_tree_spec(depth):
            if depth == 0 or local.random() < 0.3:
                return {}
            width = local.randint(1, 3 if depth == 1 else 2)
            return {"children": [random_tree_spec(depth - 1) for _ in range(width)]}

        tested = 0
        while tested < 20:
            T = ep.tree_from_children({"children": [random_tree_spec(2) for _ in range(local.randint(1, 2))]})
            G = ep.tree_automorphisms(T)
            if G.order > 2000:
                continue
            assert G.order == _count_poset_automorphisms(T.poset)
            tested += 1

    def test_deep_tree_without_recursion(self):
        spec = {}
        for _ in range(3000):
            spec = {"children": [spec]}
        T = ep.tree_from_children(spec)
        assert T.poset.n == 3001 and T.poset.max_rank == 3000
        assert T.leaves == (0,) and T.root == 3000
        G = ep.tree_automorphisms(T)
        assert G.degree == 1 and G.order == 1 and G.generators == ()

    def test_deep_isomorphic_siblings(self):
        # two 1500-level chains, a 1499-level chain and a cherry under one root
        def chain(levels):
            spec = {}
            for _ in range(levels):
                spec = {"children": [spec]}
            return spec

        spec = {"children": [chain(1500), chain(1500), chain(1499), {"children": [{}, {}]}]}
        G = ep.tree_automorphisms(ep.tree_from_children(spec))
        assert G.order == 4
        assert [g.cycle_string() for g in G.generators] == ["(4 5)", "(1 2)"]

    def test_generators_match_recursive_oracle(self):
        import random

        local = random.Random(11)

        def random_tree_spec(depth):
            if depth == 0 or local.random() < 0.3:
                return {}
            return {"children": [random_tree_spec(depth - 1) for _ in range(local.randint(1, 3))]}

        for _ in range(200):
            T = ep.tree_from_children(random_tree_spec(4))
            G = ep.tree_automorphisms(T)
            gens, order = recursive_tree_automorphisms(T)
            assert G.generators == gens
            assert G.order == order

    def test_wide_star_over_enumeration_cap(self):
        T = ep.tree_from_children({"children": [{} for _ in range(10)]})
        assert ep.tree_automorphisms(T).order == 3628800

    def test_rooted_tree_validation(self):
        with pytest.raises(InvalidParams):
            ep.rooted_tree(ep.antichain(2))  # two maximal elements
        with pytest.raises(InvalidParams):
            ep.rooted_tree(ep.boolean_algebra(2))  # non-root with two parents


class TestStabilizers:
    def test_schreier_sims_order_matches_closure(self, rng):
        for _ in range(200):
            n = rng.randint(1, 7)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
            assert schreier_sims_order(gens, n) == len(_tuple_close(gens, n))

    def test_membership_matches_closure(self, rng):
        for _ in range(200):
            n = rng.randint(1, 7)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
            G = PermGroup(n, gens)
            members = _tuple_close(gens, n)
            assert G.order == len(members)
            for g in members:
                assert Permutation(g) in G
            for _ in range(20):
                g = tuple(rng.sample(range(n), n))
                assert (Permutation(g) in G) == (g in members)
        assert Permutation.from_cycles("(1 2)", 3) not in ep.symmetric(2)
        assert (0, 1) not in ep.symmetric(2)

    def test_schreier_sims_order_named_groups(self):
        for G in (ep.symmetric(8), ep.hyperoctahedral(4), ep.dihedral(10)):
            assert schreier_sims_order([g.images for g in G.generators], G.degree) == G.order


def scratch_schreier_sims(gens, n, base=()):
    """The from-scratch deterministic Schreier–Sims (Holt–Eick–O'Brien,
    SCHREIERSIMS) that the growing StabiliserChain replaced, kept as an
    oracle.  The base starts with `base` and is extended by the least point a
    new strong generator moves.  Returns the base, per level the strong
    generators, and the transversal: orbit point p -> (u_p, u_p^-1)."""
    ident = tuple(range(n))

    def compose(a, b):  # a after b
        return tuple(map(a.__getitem__, b))

    def transversal(b, strong):
        u = {b: (ident, ident)}
        frontier = [b]
        for p in frontier:
            for s in strong:
                q = s[p]
                if q not in u:
                    fwd = compose(s, u[p][0])
                    u[q] = (fwd, tuple(sorted(ident, key=fwd.__getitem__)))
                    frontier.append(q)
        return u

    def residue(i):  # a Schreier generator of level i that fails to sift
        for up, _ in U[i].values():
            for s in S[i]:
                sp = compose(s, up)
                h, j = scratch_sift(base, U, compose(U[i][sp[base[i]]][1], sp), i + 1)
                if j < len(base) or h != ident:
                    return h, j
        return None

    base = list(base)
    strong = [g for g in dict.fromkeys(map(tuple, gens)) if g != ident]
    for g in strong:
        if all(g[b] == b for b in base):
            base.append(next(i for i in range(n) if g[i] != i))
    S = []
    for b in base:
        S.append(strong)
        strong = [g for g in strong if g[b] == b]
    U = [transversal(b, s) for b, s in zip(base, S)]
    i = len(base) - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        if j == len(base):
            base.append(next(k for k in range(n) if h[k] != k))
            S.append([])
            U.append(None)
        for level in range(i + 1, j + 1):
            S[level].append(h)
            U[level] = transversal(base[level], S[level])
        i = j
    return base, S, U


def scratch_sift(base, transversals, g, start=0):
    """Strip g through the oracle's levels start..; (residue, stopping level)."""
    for j in range(start, len(transversals)):
        p = g[base[j]]
        if p == base[j]:
            continue  # u_p is the identity
        u = transversals[j].get(p)
        if u is None:
            return g, j
        g = tuple(map(u[1].__getitem__, g))
    return g, len(transversals)


def chain_oracle_groups(rng):
    """(degree, generator tuples): random sets on n <= 8 points, the named
    groups and the left-regular tables."""
    for _ in range(150):
        n = rng.randint(1, 8)
        yield n, [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
    named = [ep.symmetric(8), ep.symmetric(1), ep.cyclic(9), ep.dihedral(10), ep.hyperoctahedral(4)]
    named += [ep.wreath(ep.symmetric(3), ep.symmetric(2)), ep.tree_automorphisms(tree10())]
    for G in named:
        yield G.degree, [g.images for g in G.generators]
    for table in small_group_tables().values():
        yield len(table), [tuple(row) for row in table]


class TestStabiliserChain:
    def test_matches_scratch_schreier_sims_and_closure(self, rng):
        for n, gens in chain_oracle_groups(rng):
            G = PermGroup(n, gens)
            base, _, U = scratch_schreier_sims(gens, n, range(n))
            assert [b for b, _, _ in G.chain.levels] == base == list(range(n))
            assert [set(W) for _, _, W in G.chain.levels] == [set(u) for u in U]
            members = _tuple_close(gens, n)
            assert G.order == math.prod(map(len, U)) == len(members)
            assert schreier_sims_order(gens, n) == math.prod(map(len, scratch_schreier_sims(gens, n)[2]))
            probes = rng.sample(sorted(members), min(len(members), 30))
            probes += [tuple(rng.sample(range(n), n)) for _ in range(30)]
            for g in probes:
                inside = scratch_sift(base, U, g)[1] == n
                assert (Permutation(g) in G) == inside == (g in members), (n, gens, g)

    def test_one_inverse_per_orbit_point(self, rng):
        for n, gens in chain_oracle_groups(rng):
            chain = PermGroup(n, gens).chain
            for i, (b, strong, W) in enumerate(chain.levels):
                for p, w in W.items():
                    assert isinstance(w, tuple) and sorted(w) == list(range(n))
                    assert w[p] == b  # u_p^-1 sends p back to the base point
                for s, s_inv in strong:
                    assert all(s[c] == c for c, _, _ in chain.levels[:i])
                    assert all(s_inv[x] == k for k, x in enumerate(s))

    def test_extending_by_a_member_changes_nothing(self, rng):
        for n, gens in chain_oracle_groups(rng):
            G = PermGroup(n, gens)
            before = copy.deepcopy((G.chain.levels, G.chain.sifted))
            members = sorted(_tuple_close(gens, n))
            for g in rng.sample(members, min(len(members), 10)) + gens:
                assert G.chain.extend(g) is False
            assert (G.chain.levels, G.chain.sifted) == before

    def test_extending_grows_to_the_closure(self, rng):
        # one chain extended by a generator at a time holds every prefix group
        for _ in range(100):
            n = rng.randint(1, 7)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 4))]
            chain = perms.StabiliserChain(n, range(n))
            for k, g in enumerate(gens):
                before = chain.suffix_orders()[0]
                grew = chain.extend(g)
                order = len(_tuple_close(gens[: k + 1], n))
                assert chain.suffix_orders()[0] == order and grew == (order > before)

    def test_descent_and_left_regular_build_no_group_per_prefix(self, monkeypatch):
        built = []
        init = PermGroup.__init__

        def counting_init(self, degree, generators):
            built.append(len(generators))
            init(self, degree, generators)

        S8 = ep.symmetric(8)
        monkeypatch.setattr(PermGroup, "__init__", counting_init)
        H = minimal_generators(S8)
        assert built == [0] and H.order == S8.order
        for name, table in small_group_tables().items():
            built.clear()
            assert ep.left_regular(table).order == len(table)
            assert built == [0], name


def exhaustive_subgroup_classes(n):
    """The exhaustive subgroup_sweep that cyclic extension replaced, kept as an
    oracle: close every known subgroup with every outside element, dedupe by
    element set, then keep the least subgroup of each conjugacy class."""
    from itertools import permutations as iperms

    full = sorted(iperms(range(n)))
    ident = tuple(range(n))
    subs = {frozenset([ident])}
    frontier = [frozenset([ident])]
    while frontier:
        new = []
        for H in frontier:
            base = list(H)
            for g in full:
                if g in H:
                    continue
                K = frozenset(_tuple_close(base + [g], n))
                if K not in subs:
                    subs.add(K)
                    new.append(K)
        frontier = new
    inv = {g: tuple(sorted(range(n), key=lambda i: g[i])) for g in full}
    reps = []
    seen = set()
    for H in sorted(subs, key=lambda s: (len(s), sorted(s))):
        if H in seen:
            continue
        cls = set()
        for g in full:
            gi = inv[g]
            cls.add(frozenset(tuple(g[h[gi[i]]] for i in range(n)) for h in H))
        seen |= cls
        reps.append(H)
    out = []
    for H in reps:
        G = PermGroup(n, [Permutation(h) for h in sorted(H)])
        gens = minimal_generators(G).generators
        out.append(PermGroup(n, gens))
    out.sort(key=lambda G: (G.order, G.elements))
    return out


def cyclic_extension_subgroup_classes(n):
    """The cyclic-extension subgroup_sweep that normaliser orbits and
    centraliser cosets replaced, kept as an oracle: extend each representative
    by every cyclic subgroup outside it, and find each new subgroup's least
    conjugate among all n! conjugators."""
    from itertools import permutations as iperms

    full = sorted(iperms(range(n)))
    inv = {g: tuple(sorted(range(n), key=g.__getitem__)) for g in full}

    def conjugate(x, h):  # x h x^-1
        return tuple(x[h[j]] for j in inv[x])

    cyclic_gens = {frozenset(_tuple_close([g], n)): g for g in full}.values()
    trivial_set = frozenset([full[0]])
    reps = {trivial_set: ()}  # least conjugate -> its generators
    seen = {trivial_set}
    todo = [(trivial_set, ())]
    while todo:
        H, gens = todo.pop()
        for c in cyclic_gens:
            if c in H:
                continue
            K = frozenset(_tuple_close(gens + (c,), n))
            if K in seen:
                continue
            seen.add(K)
            x = min(full, key=lambda y: sorted(conjugate(y, k) for k in K))
            least = frozenset(conjugate(x, k) for k in K)
            if least not in reps:
                seen.add(least)
                reps[least] = tuple(conjugate(x, h) for h in gens + (c,))
                todo.append((least, reps[least]))
    out = []
    for gens in reps.values():
        G = PermGroup(n, [Permutation(h) for h in gens])
        out.append(PermGroup(n, minimal_generators(G).generators))
    out.sort(key=lambda G: (G.order, G.elements))
    return out


def set_partitions(points):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for blocks in set_partitions(rest):
        yield [[first], *blocks]
        for i, B in enumerate(blocks):
            yield blocks[:i] + [[first, *B]] + blocks[i + 1 :]


def primitive_by_partitions(gens, n):
    """Brute-force primitivity: transitive, and no set partition of the
    points other than the two trivial ones is invariant under the generators
    (each block mapped into one block)."""
    orbit = {0}
    for _ in range(n):
        orbit |= {g[a] for g in gens for a in orbit}
    if len(orbit) < n:
        return False
    for blocks in set_partitions(list(range(n))):
        if 1 < len(blocks) < n:
            block_of = {p: i for i, B in enumerate(blocks) for p in B}
            if all(len({block_of[g[p]] for p in B}) == 1 for g in gens for B in blocks):
                return False
    return True


def random_generator_sets(rng, n, count):
    """Generator sets on n points: arbitrary permutations, permutations of a
    conjugate of S_a wr S_b (imprimitive) and permutations fixing a point."""
    points = list(range(n))
    splits = [(a, n // a) for a in range(2, n) if n % a == 0]
    for i in range(count):
        x = rng.sample(points, n)
        gens = []
        for _ in range(rng.randint(1, 3)):
            if i % 3 == 1 and splits:
                a, b = rng.choice(splits)
                blocks = rng.sample(range(b), b)
                inner = [rng.sample(range(a), a) for _ in range(b)]
                g = [blocks[p // a] * a + inner[p // a][p % a] for p in points]
            elif i % 3 == 2:
                g = [0] + rng.sample(points[1:], n - 1)
            else:
                g = rng.sample(points, n)
            gens.append(tuple(x[g[x.index(p)]] for p in points))  # x g x^-1
        yield gens


def pgl_2_5():
    """PGL(2, 5) on the projective line {0..4, oo}, oo as point 5: the
    affine maps t -> t + 1 and t -> 2t, and t -> -1/t."""
    inverse = {1: 1, 2: 3, 3: 2, 4: 4}
    shift = tuple((t + 1) % 5 for t in range(5)) + (5,)
    scale = tuple(2 * t % 5 for t in range(5)) + (5,)
    flip = (5,) + tuple(-inverse[t] % 5 for t in range(1, 5)) + (0,)
    return PermGroup(6, [shift, scale, flip])


class TestPrimitivity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_partition_oracle(self, n, rng):
        verdicts = []
        for gens in random_generator_sets(rng, n, 30):
            verdicts.append(is_primitive(gens, n))
            assert verdicts[-1] == primitive_by_partitions(gens, n), gens
        if n >= 4:
            assert True in verdicts and False in verdicts

    def named_groups(self):
        for p in (2, 3, 5, 7):
            yield ep.cyclic(p), True
            yield ep.dihedral(p), True
        for n in (4, 6):
            yield ep.cyclic(n), False
            yield ep.dihedral(n), False
        for a, b in ((2, 2), (2, 3), (3, 2)):
            yield ep.wreath(ep.symmetric(a), ep.symmetric(b)), False
        yield ep.hyperoctahedral(3), False
        yield pgl_2_5(), True
        for n in (2, 4, 6, 7):
            yield ep.symmetric(n), True
            yield ep.direct_product(ep.symmetric(n - 1), ep.trivial(1)), False

    def test_named_groups(self):
        assert pgl_2_5().order == 120
        for G, primitive in self.named_groups():
            gens = [g.images for g in G.generators]
            assert is_primitive(gens, G.degree) == primitive, G
            assert primitive_by_partitions(gens, G.degree) == primitive, G


def spy_sweep_extensions(n, monkeypatch):
    """Run subgroup_sweep(n) and log each extension K = <gens(H), c>: its
    generators, is_primitive's verdict and the (limit, size) of the closure
    the sweep made of it, or None if it closed nothing."""
    log = []

    def primitive(gens, degree):
        verdict = is_primitive(gens, degree)
        log.append([tuple(gens), verdict, None])
        return verdict

    def close(gens, degree, limit=None):
        els = _tuple_close(gens, degree, limit)
        if log and log[-1][0] == tuple(gens):
            log[-1][2] = (limit, len(els))
        return els

    monkeypatch.setattr(perms, "is_primitive", primitive)
    monkeypatch.setattr(perms, "_tuple_close", close)
    perms.subgroup_sweep(n)
    monkeypatch.undo()
    return log


def closure_sizes(n, monkeypatch):
    """The size of every closure _tuple_close returns during subgroup_sweep(n)."""
    sizes = []

    def close(gens, degree, limit=None):
        els = _tuple_close(gens, degree, limit)
        sizes.append(len(els))
        return els

    monkeypatch.setattr(perms, "_tuple_close", close)
    perms.subgroup_sweep(n)
    monkeypatch.undo()
    return sizes


class TestSubgroupSweep:
    def test_counts(self):
        # OEIS A000638: subgroup conjugacy classes of S_n
        assert len(ep.subgroup_sweep(1)) == 1
        assert len(ep.subgroup_sweep(2)) == 2
        assert len(ep.subgroup_sweep(3)) == 4
        assert len(ep.subgroup_sweep(4)) == 11
        assert len(ep.subgroup_sweep(5)) == 19
        assert len(ep.subgroup_sweep(6)) == 56

    def test_classes_are_non_conjugate(self):
        for n in (4, 5):
            classes = ep.subgroup_sweep(n)
            sets = [G.element_set for G in classes]
            full = ep.symmetric(n)
            for i, H in enumerate(sets):
                for K in sets[i + 1 :]:
                    if len(H) != len(K):
                        continue
                    conjugate = any(
                        frozenset(g * h * g.inverse() for h in H) == K for g in full.elements
                    )
                    assert not conjugate

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_exhaustive_oracle(self, n):
        got = ep.subgroup_sweep(n)
        want = exhaustive_subgroup_classes(n)
        assert len(got) == len(want)
        for G, W in zip(got, want):
            assert G.generators == W.generators
            assert G.elements == W.elements

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_cyclic_extension_oracle(self, n):
        got = ep.subgroup_sweep(n)
        want = cyclic_extension_subgroup_classes(n)
        assert len(got) == len(want)
        for G, W in zip(got, want):
            assert G.generators == W.generators
            assert G.elements == W.elements

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sorts_without_enumerating_the_classes(self, n):
        # the output order is read off the element sets the sweep holds
        for G in ep.subgroup_sweep(n):
            assert "elements" not in G.__dict__

    def test_out_of_range(self):
        with pytest.raises(InvalidParams):
            ep.subgroup_sweep(8)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_decided_extensions_are_alternating_or_symmetric(self, n, monkeypatch):
        # Jordan's theorem decides a primitive K with a 3-cycle or a
        # transposition, Bochert's a primitive K that passes its bound; either
        # way K is A_n or S_n by its generators' parity.  Every other K is
        # closed in full, and is then below half of that group.
        full = set(itertools.permutations(range(n)))
        alternating = {g for g in full if (n - len(perms._cycles(g))) % 2 == 0}
        bochert = math.factorial(n) // math.factorial((n + 1) // 2)
        decided = {"jordan": 0, "bochert": 0, "closed": 0}
        for gens, primitive, closed in spy_sweep_extensions(n, monkeypatch):
            K = _tuple_close(gens, n)
            G = alternating if alternating.issuperset(gens) else full
            if closed is None:
                decided["jordan"] += 1
                assert primitive and K == G
            elif closed[0] is not None and closed[1] > closed[0]:
                decided["bochert"] += 1
                assert primitive and closed[0] == bochert and K == G
            else:
                decided["closed"] += 1
                assert closed == ((bochert if primitive else None), len(K))
                assert 2 * len(K) < len(G)
        if n >= 5:
            assert all(decided.values()), decided

    def test_closes_a_quarter_of_the_lagrange_stop(self, monkeypatch):
        # stopping only at half of A_n or S_n, the sweep enumerated 8,525
        # elements at n = 5
        assert sum(closure_sizes(5, monkeypatch)) <= 8525 // 4

    @pytest.mark.parametrize("n", [5, 6])
    def test_no_closure_reaches_the_alternating_group(self, n, monkeypatch):
        assert max(closure_sizes(n, monkeypatch)) < math.factorial(n) // 2

    def test_sweep_records_find_each_generator_string_once(self, monkeypatch):
        calls = []
        descend = perms.minimal_generators
        monkeypatch.setattr(perms, "minimal_generators", lambda G: calls.append(G) or descend(G))
        records = cli.sweep_records(5)
        assert len(records) == 19 and len(calls) == 19

    def test_classes_are_held_by_complete_chains(self):
        # each class is the group its descent grew: its chain already holds
        # the class, on the same base as a fresh Schreier–Sims run
        for n in range(1, 6):
            for G in ep.subgroup_sweep(n):
                gens = [g.images for g in G.generators]
                U = scratch_schreier_sims(gens, n, range(n))[2]
                assert [set(W) for _, _, W in G.chain.levels] == [set(u) for u in U]
                gens_string = ";".join(g.cycle_string() for g in G.generators) or "()"
                assert G.generator_string() == gens_string


class TestGeneratorFiles:
    def test_parse_lines(self):
        perms, degree = parse_generator_lines(
            ["# a comment", "(1 2 3)", "", "(4 5)  # trailing"], degree=6
        )
        assert degree == 6 and len(perms) == 2
        assert perms[0].degree == 6

    @pytest.mark.parametrize("point", ["17", str(10**18), "9" * 5000])
    def test_point_above_boolean_cap(self, point):
        # rejected before from_cycles allocates range(point)
        with pytest.raises(InvalidGenerators, match="boolean algebra cap 16"):
            parse_generator_lines([f"(1 {point})"])

    def test_minimal_generators(self):
        G = ep.symmetric(4)
        gens = minimal_generators(G).generators
        assert ep.PermGroup(4, gens).order == 24
        assert len(gens) <= 3


def closure_minimal_generators(G):
    """The prefix-closure greedy that the descent through G's chain replaced,
    kept as an oracle: the first sorted element outside the closure so far."""
    gens = []
    closed = {G.identity}
    for g in G.elements:
        if g in closed:
            continue
        gens.append(g)
        closed = set(PermGroup(G.degree, gens).elements)
        if len(closed) == G.order:
            break
    return gens


class TestMinimalGenerators:
    def groups(self, rng):
        yield from (ep.symmetric(n) for n in range(1, 9))
        yield from (ep.cyclic(n) for n in (1, 2, 6, 9))
        yield from (ep.dihedral(n) for n in (1, 2, 4, 5, 6, 9, 10))
        yield from (ep.hyperoctahedral(n) for n in (1, 2, 3, 4))
        yield ep.elementary_abelian_2(
            [Permutation.from_cycles("(1 2)", 4), Permutation.from_cycles("(3 4)", 4)]
        )
        yield ep.direct_product(ep.trivial(2), ep.symmetric(3))
        yield ep.direct_product(
            ep.wreath(ep.symmetric(2), ep.symmetric(2)),
            ep.wreath(ep.symmetric(3), ep.symmetric(2)),
        )
        yield ep.wreath(ep.symmetric(3), ep.symmetric(2))
        yield ep.tree_automorphisms(tree8())
        yield ep.tree_automorphisms(tree10())
        for table in small_group_tables().values():
            yield ep.left_regular(table)
        for n in range(1, 7):
            yield from ep.subgroup_sweep(n)
        for _ in range(250):
            n = rng.randint(1, 7)
            yield PermGroup(n, [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))])

    def test_matches_closure_oracle(self, rng):
        for G in self.groups(rng):
            assert list(minimal_generators(G).generators) == closure_minimal_generators(G), G
