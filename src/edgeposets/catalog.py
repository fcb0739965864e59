"""Bundled example posets, rooted trees, and small-group multiplication
tables used by the CLI and the test suite."""

from __future__ import annotations

from .errors import InvalidParams
from .perms import PermGroup, dihedral, symmetric, tree_from_children
from .poset import GradedPoset


def fig1_poset():
    """8-element graded poset of rank 4 whose edge poset shows why the naive
    componentwise order on edges is not graded."""
    ranks = (0, 1, 1, 2, 2, 3, 3, 4)
    covers = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 7)]
    return GradedPoset(ranks, covers, [str(i) for i in range(8)])


def fig1_edge_expected():
    """The 9-element edge poset of fig1, as usually drawn: ten covers, two of
    them the 'crossing' ones from the bottom rank."""
    # element order matches the canonical (rank, low, high) edge ordering of fig1:
    # (0,1) (0,2) (1,3) (2,3) (2,4) (3,5) (4,6) (5,7) (6,7)
    ranks = (0, 0, 1, 1, 1, 2, 2, 3, 3)
    covers = [
        (0, 2), (0, 3), (1, 2), (1, 3), (1, 4),
        (2, 5), (3, 5), (4, 6), (5, 7), (6, 8),
    ]
    return GradedPoset(ranks, covers)


def fig2_poset():
    """8-element self-dual unitary-Peck poset whose edge poset has rank vector
    (3, 2, 3): rank-symmetric but not unimodal, hence not Peck."""
    ranks = (0, 0, 1, 1, 2, 2, 3, 3)
    covers = [(0, 2), (0, 3), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6), (5, 7)]
    return GradedPoset(ranks, covers, [str(i) for i in range(8)])


NAMED_POSETS = {"fig1": fig1_poset, "fig2": fig2_poset}


def named_poset(name):
    try:
        return NAMED_POSETS[name]()
    except KeyError:
        raise InvalidParams(f"unknown named poset {name!r}") from None


def tree8():
    """Depth-3 binary rooted tree with 8 leaves; its automorphism group has
    order 128 and equals the doubly iterated wreath of S_2 as a permutation
    group on the leaves."""
    cherry = {"children": [{}, {}]}
    pair = {"children": [cherry, cherry]}
    return tree_from_children({"children": [pair, pair]})


def tree10():
    """10-leaf rooted tree mixing subtree shapes: two 2-leaf cherries plus a
    node holding two 3-leaf stars; automorphism group order 576."""
    cherry = {"children": [{}, {}]}
    star3 = {"children": [{}, {}, {}]}
    return tree_from_children({"children": [cherry, cherry, {"children": [star3, star3]}]})


# -- multiplication tables of the groups of order <= 8 ---------------------------


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def product_table(ta, tb):
    na, nb = len(ta), len(tb)
    out = []
    for a1 in range(na):
        for b1 in range(nb):
            out.append(
                [ta[a1][a2] * nb + tb[b1][b2] for a2 in range(na) for b2 in range(nb)]
            )
    return out


def table_from_group(G: PermGroup):
    index = {g: i for i, g in enumerate(G.elements)}
    return [[index[a * b] for b in G.elements] for a in G.elements]


def quaternion_table():
    """Order-8 quaternion group: indices encode (unit, sign) with units
    1, i, j, k and sign in {+, -}: index = 2*unit + sign."""
    unit_mul = {
        (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
        (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
        (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
        (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
    }
    table = []
    for a in range(8):
        row = []
        for b in range(8):
            ua, sa = a // 2, a % 2
            ub, sb = b // 2, b % 2
            u, s = unit_mul[(ua, ub)]
            row.append(u * 2 + (sa ^ sb ^ s))
        table.append(row)
    return table


def small_group_tables():
    """Multiplication tables of all 14 groups of order <= 8, up to isomorphism."""
    z2 = cyclic_table(2)
    z4 = cyclic_table(4)
    return {
        "Z1": cyclic_table(1),
        "Z2": z2,
        "Z3": cyclic_table(3),
        "Z4": z4,
        "Z2xZ2": product_table(z2, z2),
        "Z5": cyclic_table(5),
        "Z6": cyclic_table(6),
        "S3": table_from_group(symmetric(3)),
        "Z7": cyclic_table(7),
        "Z8": cyclic_table(8),
        "Z4xZ2": product_table(z4, z2),
        "Z2xZ2xZ2": product_table(product_table(z2, z2), z2),
        "D8": table_from_group(dihedral(4)),
        "Q8": quaternion_table(),
    }


ELEMENTARY_ABELIAN_2 = {"Z1", "Z2", "Z2xZ2", "Z2xZ2xZ2"}
