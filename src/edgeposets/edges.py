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

from .errors import InternalInconsistency
from .poset import (
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


def _edge_positions(P, pairs):
    """edge_at[x][y] is the position in `pairs` of the edge (x, y)."""
    edge_at = [{} for _ in range(P.n)]
    for i, (x, y) in enumerate(pairs):
        edge_at[x][y] = i
    return edge_at


def _edge_covers(P, pairs, edge_at, relaxed):
    """The covers of E(P), or of H(P) when relaxed, from each edge in `pairs`:
    (i, j) when pairs[i] is covered by the edge at position j of edge_at
    (_edge_positions).

    (x, y) is covered by (x2, y2) when x2 covers x, y2 covers y and (x2, y2)
    is an edge; H(P) also asks x2 != y.
    """
    up = P.up
    covers = []
    for i, (x, y) in enumerate(pairs):
        up_y = up[y]
        for x2 in up[x]:
            if relaxed and x2 == y:
                continue
            position = edge_at[x2].get
            for y2 in up_y:
                j = position(y2)
                if j is not None:
                    covers.append((i, j))
    return covers


def _build(P, relaxed):
    pairs = _edge_pairs(P)
    ranks = tuple(P.ranks[x] for x, _ in pairs)
    covers = _edge_covers(P, pairs, _edge_positions(P, pairs), relaxed)
    labels = tuple(f"({P.label(x)},{P.label(y)})" for x, y in pairs)
    return EdgePoset(P, GradedPoset(ranks, covers, labels), pairs)


def edge_poset(P):
    """E(P): elements are the covers of P; (x,y) is covered by (x',y') when
    x is covered by x' and y by y'; the order is the transitive closure."""
    return _build(P, relaxed=False)


def h_poset(P):
    """H(P): same elements as E(P), covers restricted to pairs with x' != y."""
    return _build(P, relaxed=True)


def edge_map(f):
    """Induced morphism E(f): (x, y) -> (f(x), f(y)).

    Functorial: edge_map of an identity is the identity, and edge_map of a
    composite is the composite of edge maps.  A PosetMorphism sends covers to
    covers, so every image pair is an element of E(f.target).
    """
    es, et = edge_poset(f.source), edge_poset(f.target)
    return PosetMorphism(es.poset, et.poset, [et.index[(f(x), f(y))] for x, y in es.pairs])


def naive_edge_relation_is_graded(P):
    """Whether ordering edge pairs componentwise (x <= a and y <= b) yields a
    graded poset.

    That relation R is graded exactly when it equals E(P)'s order.  E(P)'s
    order lies in R, since its covers are componentwise covers.  A Hasse edge
    of R that raises edge rank by one is a pair with x covered by a and y by
    b, an E(P) cover; so if every Hasse edge of R raises rank by one, R lies
    in E(P)'s order.  A Hasse edge of R that raises rank by more than one is
    not a relation of E(P), whose longer relations pass through elements
    strictly between.
    """
    E = edge_poset(P)
    return all(
        E.poset.leq(i, j) == (P.leq(x, a) and P.leq(y, b))
        for i, (x, y) in enumerate(E.pairs)
        for j, (a, b) in enumerate(E.pairs)
    )


def h_to_e_bijection(P):
    """The identity-on-elements bijective morphism H(P) -> E(P); both element
    tables are _edge_pairs(P).

    Kept as public API and a test oracle.  It builds H(P) and E(P) itself;
    a caller that already holds both writes PosetMorphism(h, e, range(h.n))."""
    h = h_poset(P)
    return PosetMorphism(h.poset, edge_poset(P).poset, range(h.poset.n))


def _drop_bit(mask, i):
    return (mask & ((1 << i) - 1)) | ((mask >> (i + 1)) << i)


def h_bn_decomposition(hb):
    """Isomorphism witness from H(B_n) to n disjoint copies of B_{n-1}, for
    hb = h_poset(boolean_algebra(n)).

    The edge (x, x | {i}) lands in copy i at the element obtained from x by
    deleting coordinate i and compacting the remaining points.  H(B_0) is
    empty, the union of no copies.  The witness is verified as an isomorphism
    before being returned.
    """
    n = hb.source.n.bit_length() - 1
    half = (1 << n) >> 1
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
