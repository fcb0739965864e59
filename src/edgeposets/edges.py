"""The edge functor E, the relaxed edge poset H, induced maps on morphisms,
and the explicit structural isomorphisms between them.

An edge element is a cover pair (low, high) of the source poset; its rank in
both E(P) and H(P) is the rank of the low end.  Covers of E(P) are pairs of
covers in both coordinates; H(P) keeps only those whose new low differs from
the old high, which weakens the order.  So E(P) and H(P) share their elements,
element order and ranks and differ only in their covers: anything read from
ranks alone, such as the rank vector of a quotient by a group acting on P, is
the same for both.
"""

from __future__ import annotations

from .errors import ImageNotCover, InternalInconsistency, TooLarge
from .poset import (
    BOOLEAN_CAP,
    GradedPoset,
    PosetMorphism,
    boolean_algebra,
    disjoint_union,
)


class EdgePoset:
    """An edge poset together with its element table.

    pairs[i] is the (low, high) cover of the source poset that element i
    stands for; pairs are canonically sorted by (rank, low, high) so the
    construction is deterministic.
    """

    def __init__(self, source, poset, pairs):
        self.source = source
        self.poset = poset
        self.pairs = pairs
        self.index = {pair: i for i, pair in enumerate(pairs)}

    def __repr__(self):
        return f"EdgePoset(elements={len(self.pairs)})"


def _edge_pairs(P):
    return tuple(sorted(P.covers, key=lambda c: (P.ranks[c[0]], c[0], c[1])))


def _edge_covers(P, pairs, index, relaxed):
    covers = []
    for i, (x, y) in enumerate(pairs):
        for x2 in P.up[x]:
            if relaxed and x2 == y:
                continue
            for y2 in P.up[y]:
                j = index.get((x2, y2))
                if j is not None:
                    covers.append((i, j))
    return covers


def _build(P, relaxed):
    pairs = _edge_pairs(P)
    index = {pair: i for i, pair in enumerate(pairs)}
    ranks = tuple(P.ranks[x] for x, _ in pairs)
    covers = _edge_covers(P, pairs, index, relaxed)
    labels = tuple(f"({P.label(x)},{P.label(y)})" for x, y in pairs)
    return EdgePoset(P, GradedPoset(ranks, covers, labels), pairs)


def edge_poset(P):
    """E(P): elements are the covers of P; (x,y) is covered by (x',y') when
    x is covered by x' and y by y'; the order is the transitive closure."""
    return _build(P, relaxed=False)


def h_poset(P):
    """H(P): same elements as E(P), covers restricted to pairs with x' != y."""
    return _build(P, relaxed=True)


def edge_map(f, source_edges=None, target_edges=None):
    """Induced morphism E(f): (x, y) -> (f(x), f(y)).

    Functorial: edge_map of an identity is the identity, and edge_map of a
    composite is the composite of edge maps.  Precomputed EdgePosets for the
    endpoints may be passed to avoid rebuilding them.
    """
    es = source_edges if source_edges is not None else edge_poset(f.source)
    et = target_edges if target_edges is not None else edge_poset(f.target)
    image = []
    for x, y in es.pairs:
        j = et.index.get((f(x), f(y)))
        if j is None:
            # impossible for a valid morphism; rank-preserving order-preserving
            # maps send covers to covers
            raise ImageNotCover(f"({f(x)}, {f(y)}) is not a cover of the target")
        image.append(j)
    return PosetMorphism(es.poset, et.poset, image)


def naive_edge_relation_is_graded(P):
    """Whether ordering edge pairs componentwise (x <= a and y <= b) yields a
    graded poset.

    Builds the full componentwise relation, takes its Hasse reduction, and
    checks that every Hasse edge raises edge rank by exactly one.  Full
    transitive information is used so a negative verdict is conclusive.
    """
    pairs = _edge_pairs(P)
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


def h_to_e_bijection(P, h=None, e=None):
    """The identity-on-elements bijective morphism H(P) -> E(P)."""
    if h is None:
        h = h_poset(P)
    if e is None:
        e = edge_poset(P)
    if h.pairs != e.pairs:
        raise InternalInconsistency("H and E element tables differ")
    return PosetMorphism(h.poset, e.poset, range(len(h.pairs)))


def _drop_bit(mask, i):
    return (mask & ((1 << i) - 1)) | ((mask >> (i + 1)) << i)


def h_bn_decomposition(n):
    """Isomorphism witness from H(B_n) to n disjoint copies of B_{n-1}.

    The edge (x, x | {i}) lands in copy i at the element obtained from x by
    deleting coordinate i and compacting the remaining points.  The witness is
    verified as an isomorphism before being returned.
    """
    if not 1 <= n <= BOOLEAN_CAP:
        raise TooLarge(f"need 1 <= n <= {BOOLEAN_CAP}")
    hb = h_poset(boolean_algebra(n))
    half = 1 << (n - 1)
    target = disjoint_union([boolean_algebra(n - 1) for _ in range(n)])
    image = []
    for x, y in hb.pairs:
        i = (x ^ y).bit_length() - 1
        image.append(i * half + _drop_bit(x, i))
    f = PosetMorphism(hb.poset, target, image)
    if not f.is_isomorphism():
        raise InternalInconsistency("H(B_n) decomposition witness is not an isomorphism")
    return f


def edge_poset_to_json(E):
    """JSON dict for an edge poset: the poset fields plus the element table
    under "edges" as [low, high] pairs of the source."""
    from .poset import poset_to_json

    obj = poset_to_json(E.poset)
    obj["edges"] = [list(pair) for pair in E.pairs]
    return obj


def edge_dual_witness(P):
    """Isomorphism E(dual(P)) -> dual(E(P)): each edge pair read in reverse."""
    Pd = P.dual()
    ed = edge_poset(Pd)
    e = edge_poset(P)
    target = e.poset.dual()
    image = [e.index[(y, x)] for x, y in ed.pairs]
    f = PosetMorphism(ed.poset, target, image)
    if not f.is_isomorphism():
        raise InternalInconsistency("edge/dual commuting witness is not an isomorphism")
    return f
