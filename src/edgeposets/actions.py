"""Group actions on graded posets by rank-preserving automorphisms: induced
actions on boolean algebras and on edge posets, quotient posets, the
comparison map q from E(P)/G to E(P/G), the four equivalent common cover
transitivity tests, and product/wreath constructions of actions.

A PosetAction is an action by automorphisms by its type: PosetAction checks
maps given from outside once, and the package's own constructions store maps
of a homomorphism G -> Aut(P) unchecked, with the proof in each docstring.
Nothing downstream checks the action again.

q reads E(P)/G off P's covers and the generator maps (_edge_quotient): the
covers of E(P)/G come from the orbit representatives alone, so E(P) itself
is never built.  action_on_edges still builds E(P) or H(P) with the induced
action on it, for callers that want the whole edge poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .edges import EdgePoset, _edge_covers, _edge_pairs, _edge_positions, edge_poset, h_poset
from .errors import InternalInconsistency, InvalidMorphism, InvalidParams
from .perms import (
    Permutation,
    _tuple_close,
    check_enumerable,
    direct_product,
    schreier_sims_order,
    symmetric,
    wreath,
)
from .poset import GradedPoset, PosetMorphism, boolean_algebra, combine


def orbit_labels(perms, n):
    """Orbit label of each point 0..n-1 under the permutations `perms`, orbits
    numbered by ascending least element: a breadth-first search from each
    least unlabelled point (forward images suffice on a finite set)."""
    label = [None] * n
    count = 0
    for start in range(n):
        if label[start] is None:
            label[start] = count
            frontier = [start]
            for p in frontier:
                for m in perms:
                    q = m[p]
                    if label[q] is None:
                        label[q] = count
                        frontier.append(q)
            count += 1
    return label


def _least_of_each(orbit_of):
    """Least point of each orbit, in orbit order, for labels numbered by
    ascending least element (orbit_labels): the first occurrences."""
    first = {}
    for x, o in enumerate(orbit_of):
        first.setdefault(o, x)
    return tuple(first.values())


class PosetAction:
    """A PermGroup acting on a GradedPoset by automorphisms.

    The action is stored as one element-permutation per group generator.
    Maps given from outside are checked here: each must be a bijective
    PosetMorphism of the poset onto itself, so an automorphism (see
    PosetMorphism.is_isomorphism), and diagonal_order must be |G|, so they
    respect the group's relations; a failure raises InvalidParams.  The
    package's own constructions prove their maps and go through _trusted.
    """

    def __init__(self, group, poset, gen_maps):
        gen_maps = tuple(tuple(m) for m in gen_maps)
        if len(gen_maps) != len(group.generators):
            raise InvalidParams("one element map per group generator required")
        for g, m in zip(group.generators, gen_maps):
            try:
                bijective = PosetMorphism(poset, poset, m).is_bijective()
            except InvalidMorphism as exc:
                raise InvalidParams(f"map for {g.cycle_string()}: {exc}") from exc
            if not bijective:
                raise InvalidParams(f"map for {g.cycle_string()} is not a bijection")
        self.group, self.poset, self.gen_maps = group, poset, gen_maps
        if self.diagonal_order != group.order:
            raise InvalidParams("generator maps violate a group relation")

    @classmethod
    def _trusted(cls, group, poset, gen_maps):
        """Store maps proved to come from a homomorphism G -> Aut(P), unchecked."""
        A = cls.__new__(cls)
        A.group, A.poset, A.gen_maps = group, poset, tuple(tuple(m) for m in gen_maps)
        return A

    def __repr__(self):
        return f"PosetAction(order={self.group.order}, poset={self.poset!r})"

    @cached_property
    def diagonal_generators(self):
        """The generators (g, m_g) of the diagonal group, one-line tuples on
        the group's points followed by the poset's elements."""
        d = self.group.degree
        return [
            g.images + tuple(d + y for y in m)
            for g, m in zip(self.group.generators, self.gen_maps)
        ]

    @cached_property
    def element_maps(self):
        """dict: group element -> element permutation (tuple), whole group.

        The diagonal group is closed by _tuple_close and split into its two
        factors; it is the graph of the action, so it has |G| elements (see
        diagonal_order).  Raises GroupTooLarge, before closing anything, for
        an order above the enumeration cap."""
        check_enumerable(self.group.order)
        d = self.group.degree
        closure = _tuple_close(self.diagonal_generators, d + self.poset.n)
        return {Permutation(t[:d]): tuple(y - d for y in t[d:]) for t in closure}

    @cached_property
    def diagonal_order(self):
        """Order of the diagonal group <(g, m_g)> over the group generators g
        with their maps m_g, found by Schreier–Sims without enumerating it.

        Projecting onto the first factor maps this group onto G, and the
        kernel is the set of poset maps that the generator maps force on the
        identity.  So its order is |G| exactly when the maps define an action
        of G, faithful or not.
        """
        return schreier_sims_order(self.diagonal_generators, self.group.degree + self.poset.n)

    @cached_property
    def orbit_of(self):
        """orbit_of[x]: orbit index of x under the generator maps, orbits
        numbered by ascending least element (orbit_labels)."""
        return tuple(orbit_labels(self.gen_maps, self.poset.n))

    @cached_property
    def orbit_reps(self):
        """Ascending least element of each orbit."""
        return _least_of_each(self.orbit_of)

    @cached_property
    def q(self):
        """The comparison map q: E(P)/G -> E(P/G), built once per action.

        E(P)/G comes from _edge_quotient and E(P) is never built: G acts on
        E(P) by automorphisms, so each cover of E(P) is carried onto a cover
        whose lower end is an orbit representative, and the covers of E(P)/G
        are read off the representatives alone.  E(P/G) is built in full.  q
        sends the orbit of an edge (x, y) to the edge (orbit x, orbit y).
        """
        quot = quotient(self)
        pairs = _edge_pairs(self.poset)
        eq = _edge_quotient(self, pairs)
        qe = edge_poset(quot.poset)
        image = []
        for rep in eq.reps:
            x, y = pairs[rep]
            image.append(qe.index[(quot.orbit_of[x], quot.orbit_of[y])])
        f = PosetMorphism(eq.poset, qe.poset, image)
        if len(set(image)) != qe.poset.n:
            raise InternalInconsistency("q failed to be surjective")
        bij = eq.poset.n == qe.poset.n
        return QMap(f, bij, bij and f.is_isomorphism(), eq, qe, quot)


@dataclass(frozen=True)
class QuotientPoset:
    """Orbits of an action, ordered by comparability of representatives.

    Orbit covers are exactly the images of base covers: every base relation
    factors through rank steps, so the quotient order is generated by them.
    """

    action: PosetAction
    orbit_of: tuple
    reps: tuple
    poset: GradedPoset


def quotient(A):
    orbit_of = A.orbit_of
    reps = A.orbit_reps
    P = A.poset
    ranks = tuple(P.ranks[r] for r in reps)
    covers = sorted({(orbit_of[x], orbit_of[y]) for x, y in P.covers})
    labels = tuple(f"[{P.label(r)}]" for r in reps)
    return QuotientPoset(A, orbit_of, reps, GradedPoset(ranks, covers, labels))


def induced_bn_action(G):
    """Induced action of a degree-n permutation group on B_n: g.x = {g.i : i in x}.

    Each map is built by subset recursion: once m holds g on the subsets of
    {0..i-1}, the subsets x + 2^i that add point i map to m[x] | 2^g(i).
    An action by automorphisms: x -> g.x keeps inclusion both ways, and
    (gh).x = g.(h.x)."""
    maps = []
    for g in G.generators:
        m = [0]
        for i in range(G.degree):
            bit = 1 << g(i)
            m += [y | bit for y in m]
        maps.append(m)
    return PosetAction._trusted(G, boolean_algebra(G.degree), maps)


def is_boolean_poset(P):
    """Whether P is boolean_algebra(n) for some n, bit-mask encoded.

    Each cover (x, y) must add one bit to x: y contains x, and the ranks
    (popcounts) differ by one.  Covers are distinct, so n 2^(n-1) of them are
    all of B_n's covers.
    """
    n = P.n.bit_length() - 1
    if P.n != 1 << n or any(P.ranks[x] != x.bit_count() for x in range(P.n)):
        return False
    return all(x & y == x for x, y in P.covers) and len(P.covers) == n * P.n // 2


def action_on_edges(A, which="E"):
    """Same group acting pairwise on E(P) or H(P): g.(x, y) = (gx, gy).

    An action by automorphisms: (x, y) ⋖ (x', y') means x ⋖ x' and y ⋖ y'
    (and x' != y in H(P)), which an automorphism of P keeps both ways."""
    if which == "E":
        ep = edge_poset(A.poset)
    elif which == "H":
        ep = h_poset(A.poset)
    else:
        raise InvalidParams("which must be 'E' or 'H'")
    maps = []
    for m in A.gen_maps:
        maps.append(tuple(ep.index[(m[x], m[y])] for x, y in ep.pairs))
    return PosetAction._trusted(A.group, ep.poset, maps), ep


@dataclass(frozen=True)
class EdgeQuotient:
    """E(P)/G, read off P without building E(P) (_edge_quotient).

    Edges are numbered by their position in _edge_pairs(P), which is E(P)'s
    element order.  orbit_of[i] is the orbit of edge i, orbits numbered by
    ascending least edge; reps[o] is the least edge of orbit o, and poset's
    element o is orbit o.
    """

    orbit_of: tuple  # edge position -> orbit
    reps: tuple      # orbit -> least edge position
    poset: GradedPoset


def _edge_quotient(A, pairs):
    """E(P)/G for the action A on P, from P's covers `pairs` (_edge_pairs(P))
    and the generator maps, without building E(P).

    Orbits are those of the generators' maps g.(x, y) = (gx, gy) on edges,
    and the quotient's covers are the orbits of E(P)'s covers.  Those are all
    read off the representatives: G acts on E(P) by automorphisms, so for any
    cover (e, e') of E(P) some g in G has g.e = rep(e), and (g.e, g.e') is a
    cover from rep(e) whose upper end lies in the orbit of e'.  So
    (orbit e, orbit e') is the image of a cover from a representative.

    G acts on E(P) by automorphisms because a PosetAction acts on P by
    automorphisms (the proof is action_on_edges'), so E(P)'s cover relation
    is never listed.
    """
    P = A.poset
    edge_at = _edge_positions(P, pairs)
    edge_maps = [tuple(edge_at[m[x]][m[y]] for x, y in pairs) for m in A.gen_maps]
    ranks = [P.ranks[x] for x, _ in pairs]
    orbit_of = tuple(orbit_labels(edge_maps, len(pairs)))
    reps = _least_of_each(orbit_of)
    rep_pairs = [pairs[r] for r in reps]
    # the covers from representatives; position o in rep_pairs is orbit o
    covers = {(o, orbit_of[j]) for o, j in _edge_covers(P, rep_pairs, edge_at, False)}
    labels = tuple(f"[({P.label(x)},{P.label(y)})]" for x, y in rep_pairs)
    poset = GradedPoset((ranks[r] for r in reps), covers, labels)
    return EdgeQuotient(orbit_of, reps, poset)


@dataclass(frozen=True)
class QMap:
    """The comparison morphism q: E(P)/G -> E(P/G), with its flags.

    q is always surjective; it is bijective precisely when the action is CCT,
    and even then need not be an isomorphism.  Each action builds its q once
    (PosetAction.q); the CCT tests, the self-duality witnesses and the CLI
    records all read that one map and the quotients it carries.  E(P)/G is an
    EdgeQuotient, whose positions are those of _edge_pairs(P): E(P) is not
    built, so it carries no action on E(P).
    """

    morphism: PosetMorphism
    bijective: bool
    isomorphism: bool
    edge_quotient: EdgeQuotient   # E(P)/G
    quotient_edges: EdgePoset     # E(P/G)
    base_quotient: QuotientPoset  # P/G


def q_map(A):
    return A.q


class CCTResult(NamedTuple):
    ok: bool
    witness: tuple | None
    method: str


CCT_METHODS = ("direct", "dual", "q-bijective", "rank-counts")


def is_cct(A, method="direct"):
    """Common cover transitivity of an action, by any of four equivalent tests.

    direct:      whenever x, y are lower covers of z in one orbit, some
                 stabilizer element of z carries x to y; witness (x, y, z) on
                 failure, found in canonical scan order (z ascending, then the
                 ascending pair of lower covers).
    dual:        the upper-cover mirror; witness (y, z, x) with y, z upper
                 covers of x.
    q-bijective: q: E(P)/G -> E(P/G) is a bijection.
    rank-counts: E(P)/G and E(P/G) have equal rank vectors.

    direct and dual test only orbit representatives, with Stab(z)'s orbits
    on the covers of z taken from Schreier generators (see _cct_scan), which
    is sound because a PosetAction is an action of G by construction; no
    other group element's map is built.
    """
    if method == "direct":
        return _cct_scan(A, upward=False)
    if method == "dual":
        return _cct_scan(A, upward=True)
    if method == "q-bijective":
        return CCTResult(q_map(A).bijective, None, method)
    if method == "rank-counts":
        left = A.q.edge_quotient.poset.rank_vector
        right = A.q.quotient_edges.poset.rank_vector
        return CCTResult(left == right, None, method)
    raise InvalidParams(f"unknown method {method!r}; pick from {CCT_METHODS}")


def _cct_scan(A, upward):
    """The direct (lower covers) or dual (upper covers) CCT scan.

    g in G carries the covers of z onto the covers of g.z, and conjugates
    Stab(z) onto Stab(g.z), so the condition holds at z exactly when it holds
    at g.z.  The least z where it fails is therefore the least element of its
    orbit, and scanning the ascending orbit representatives A.orbit_reps finds
    the same first failing z, and so the same witness, as scanning every z.
    """
    P = A.poset
    orbit_of = A.orbit_of
    neighbors = P.up if upward else P.down
    name = "dual" if upward else "direct"
    for z in A.orbit_reps:
        adjacent = neighbors[z]
        classes = None
        for i, x in enumerate(adjacent):
            for j, y in enumerate(adjacent[i + 1 :], i + 1):
                if orbit_of[x] != orbit_of[y]:
                    continue
                if classes is None:
                    classes = _stabilizer_classes(A, z, adjacent)
                if classes[i] != classes[j]:
                    return CCTResult(False, (x, y, z), name)
    return CCTResult(True, None, name)


def _stabilizer_classes(A, z, adjacent):
    """The orbits of Stab(z) on the covers `adjacent` of z (all lower or all
    upper), as an orbit label for each position (orbit_labels); callers
    compare labels only for equality.

    A breadth-first search of z's orbit under the generator maps gives, for
    each orbit point p, a transversal element u_p with u_p(z) = p; it is kept
    only as its restriction to `adjacent`, which it maps onto p's covers.
    By Schreier's lemma the elements u_{s(p)}^-1 s u_p, over orbit points p
    and generator maps s, generate Stab(z); restricted to `adjacent` they
    generate its action there, so their orbits on positions are exactly
    Stab(z)'s orbits.
    """
    restricted = {z: adjacent}  # p -> u_p restricted to adjacent
    frontier = [z]
    for p in frontier:
        for m in A.gen_maps:
            q = m[p]
            if q not in restricted:
                restricted[q] = tuple(m[x] for x in restricted[p])
                frontier.append(q)
    position = {p: {y: i for i, y in enumerate(r)} for p, r in restricted.items()}
    schreier = {
        tuple(position[m[p]][m[x]] for x in r)
        for p, r in restricted.items()
        for m in A.gen_maps
    }
    return orbit_labels(schreier, len(adjacent))


def check_cct_triple(A, x, y, z):
    """True iff the specific triple satisfies the common-cover condition:
    some stabilizer element of z carries x to y."""
    down = A.poset.down
    if x not in down[z] or y not in down[z]:
        raise InvalidParams("x and y must be lower covers of z")
    if A.orbit_of[x] != A.orbit_of[y]:
        raise InvalidParams("x and y must lie in one orbit")
    classes = _stabilizer_classes(A, z, down[z])
    return classes[down[z].index(x)] == classes[down[z].index(y)]


# -- constructions of actions ---------------------------------------------------


def product_action(A, B):
    """(G x H) acting coordinatewise on the cartesian product poset.

    An action by automorphisms: (g, h) -> m_g x m_h, over direct_product's
    generators (G's, then H's), is one because A and B are."""
    G = direct_product(A.group, B.group)
    P = combine(A.poset, B.poset, "cartesian-product")
    qn = B.poset.n
    maps = []
    for m in A.gen_maps:
        maps.append(tuple(m[i] * qn + j for i in range(A.poset.n) for j in range(qn)))
    for m in B.gen_maps:
        maps.append(tuple(i * qn + m[j] for i in range(A.poset.n) for j in range(qn)))
    return PosetAction._trusted(G, P, maps)


def wreath_action(A, l):
    """G wr S_l acting on the l-fold product poset: the l block copies of G act
    coordinatewise and S_l permutes the coordinates.

    l - 1 iterated product_actions give the poset, with (c_0, ..., c_{l-1}) at
    index sum c_b n^(l-1-b), n = |P|, and the block copies in wreath(G, S_l)'s
    generator order.  An S_l generator h sends it to sum c_b n^(l-1-h(b)).
    An action by automorphisms: these are the generators' maps in G wr S_l's
    action on P^l, in which k in G's block b acts on coordinate b and h in
    S_l moves coordinate b to h(b), as each moves blocks of points."""
    if l < 1:
        raise InvalidParams("need l >= 1")
    S = symmetric(l)
    power = A
    for _ in range(l - 1):
        power = product_action(power, A)
    n = A.poset.n
    maps = list(power.gen_maps)
    for h in S.generators:
        m = [0]
        for b in range(l):
            place = n ** (l - 1 - h(b))
            m = [y + c * place for y in m for c in range(n)]
        maps.append(m)
    return PosetAction._trusted(wreath(A.group, S), power.poset, maps)


# -- complement self-duality ------------------------------------------------------


@dataclass(frozen=True)
class SelfDualityWitnesses:
    """Complement-induced isomorphisms E(B_n/G) -> E(B_n/G)^op and
    E(B_n)/G -> (E(B_n)/G)^op."""

    quotient_edge: PosetMorphism  # E(B_n/G) onto its dual
    edge_quotient: PosetMorphism  # E(B_n)/G onto its dual


def complement_self_duality(A):
    """Build and verify both complement-induced self-duality witnesses for an
    induced action on a boolean algebra.  Holds for every action, CCT or not."""
    if not is_boolean_poset(A.poset):
        raise InvalidParams("requires an induced action on a boolean algebra")
    n = A.poset.n.bit_length() - 1
    full = (1 << n) - 1
    quot, eq, qe = A.q.base_quotient, A.q.edge_quotient, A.q.quotient_edges
    comp_orbit = [quot.orbit_of[full ^ quot.reps[o]] for o in range(quot.poset.n)]
    image = [qe.index[(comp_orbit[oy], comp_orbit[ox])] for ox, oy in qe.pairs]
    f_qe = PosetMorphism(qe.poset, qe.poset.dual(), image)
    if not f_qe.is_isomorphism():
        raise InternalInconsistency("E(B_n/G) complement witness is not an isomorphism")

    pairs = _edge_pairs(A.poset)  # the elements of E(B_n), in E's order
    index = {pair: i for i, pair in enumerate(pairs)}
    image2 = []
    for rep in eq.reps:
        x, y = pairs[rep]
        image2.append(eq.orbit_of[index[(full ^ y, full ^ x)]])
    f_eq = PosetMorphism(eq.poset, eq.poset.dual(), image2)
    if not f_eq.is_isomorphism():
        raise InternalInconsistency("E(B_n)/G complement witness is not an isomorphism")
    return SelfDualityWitnesses(f_qe, f_eq)
