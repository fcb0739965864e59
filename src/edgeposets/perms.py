"""Permutations of {0..n-1}, permutation groups held by stabiliser chains
that grow in place (incremental Schreier–Sims) with membership by sifting,
and constructors for the group families used throughout: symmetric, cyclic,
dihedral (acting on n-gon vertices), elementary abelian 2-groups,
hyperoctahedral, wreath and direct products, left-regular actions, and
automorphism groups of rooted trees acting on their leaves."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, cmp_to_key, total_ordering
from itertools import accumulate, groupby
from operator import eq, itemgetter, mul

from .errors import (
    GroupTooLarge,
    InternalInconsistency,
    InvalidGenerators,
    InvalidParams,
    NotAGroup,
    NotCommuting,
    NotInvolutions,
)
from .poset import BOOLEAN_CAP, GradedPoset

GROUP_CAP = 2_000_000  # largest order enumerated element by element
SWEEP_MAX_N = 7     # subgroup_sweep and the exhaustive CLI sweep stop here


def _cycles(images):
    """The cycles of a permutation in one-line notation, fixed points
    included, each starting at its least point, in ascending order of it."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if not seen[start]:
            cyc = [start]
            seen[start] = True
            j = images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = images[j]
            out.append(cyc)
    return out


@total_ordering
class Permutation:
    """A bijection of {0..n-1} in one-line notation.

    Composition is function composition: (a * b)(x) = a(b(x)).
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise InvalidParams(f"not a bijection of 0..{len(images) - 1}: {images}")
        self.images = images

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def __mul__(self, other):
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.cycle_string()!r})"

    def cycle_string(self):
        """Cycle notation, 1-indexed, fixed points omitted; identity is '()'."""
        out = "".join(
            "(" + " ".join(str(k + 1) for k in cyc) + ")"
            for cyc in _cycles(self.images)
            if len(cyc) > 1
        )
        return out or "()"

    @classmethod
    def from_cycles(cls, text, degree=None):
        """Parse 1-indexed cycle notation like '(1 2 3)(4 5)'; '()' is identity."""
        text = text.strip()
        if not re.fullmatch(r"(\(\s*[\d\s,]*\))+", text):
            raise InvalidGenerators(f"cannot parse cycle notation: {text!r}")
        cycles = []
        for body in re.findall(r"\(([^()]*)\)", text):
            pts = [int(t) for t in re.split(r"[\s,]+", body.strip()) if t]
            if any(p < 1 for p in pts):
                raise InvalidGenerators(f"points are 1-indexed: {text!r}")
            if len(set(pts)) != len(pts):
                raise InvalidGenerators(f"repeated point inside a cycle: {text!r}")
            cycles.append([p - 1 for p in pts])
        top = max((p for cyc in cycles for p in cyc), default=-1) + 1
        n = max(top, degree or 0)
        images = list(range(n))
        moved = set()
        for cyc in cycles:
            for p in cyc:
                if p in moved:
                    raise InvalidGenerators(f"point repeated across cycles: {text!r}")
                moved.add(p)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(images)


def _tuple_close(gens, n, limit=None):
    """Element set of the group generated by one-line tuples on n points,
    closed breadth-first under left multiplication by the generators.  With
    a limit, the closure stops as soon as it holds limit + 1 elements; only
    subgroup_sweep passes one, Bochert's bound on a primitive group.

    The one routine that enumerates a group.  It bounds nothing itself:
    PermGroup.elements and PosetAction.element_maps call check_enumerable
    first, and subgroup_sweep closes subgroups of S_n for n <= SWEEP_MAX_N."""
    ident = tuple(range(n))
    els = {ident}
    frontier = [ident]
    apply = [g.__getitem__ for g in gens if g != ident]
    full = -1 if limit is None else limit + 1
    while frontier:
        new = []
        for cur in frontier:
            for g in apply:
                nxt = tuple(map(g, cur))
                if nxt not in els:
                    els.add(nxt)
                    if len(els) == full:
                        return els
                    new.append(nxt)
        frontier = new
    return els


def check_enumerable(order):
    """Raise GroupTooLarge before a group of this order is enumerated."""
    if order > GROUP_CAP:
        raise GroupTooLarge(f"group order {order} exceeds the enumeration cap {GROUP_CAP}")


class PermGroup:
    """Subgroup of S_n held by its stabiliser chain on the base 0..n-1, which
    each generator extends in turn.  The order is the product of the basic
    orbit lengths and membership is decided by sifting, so nothing is
    enumerated at construction and the order is not bounded.  The sorted
    element list is closed by _tuple_close (the closure subgroup_sweep uses
    too) only when `elements` is first read, so iteration is deterministic;
    that read raises GroupTooLarge for an order above GROUP_CAP."""

    def __init__(self, degree, generators):
        generators = tuple(g if isinstance(g, Permutation) else Permutation(g) for g in generators)
        for g in generators:
            if g.degree != degree:
                raise InvalidParams(f"generator degree {g.degree} != {degree}")
        self.degree = degree
        self.generators = generators
        self.chain = StabiliserChain(degree, range(degree))
        self._id = None  # generator_string(), once found
        for g in generators:
            self.chain.extend(g.images)

    @property
    def order(self):
        return self.chain.suffix_orders()[0]

    def _join(self, g):
        """Extend the group being built in place by g, unless it holds g."""
        if self.chain.extend(g.images):
            self.generators += (g,)

    @cached_property
    def elements(self):
        check_enumerable(self.order)
        closure = _tuple_close([g.images for g in self.generators], self.degree)
        return tuple(Permutation(t) for t in sorted(closure))

    @cached_property
    def element_set(self):
        return frozenset(self.elements)

    def __contains__(self, g):
        if not isinstance(g, Permutation) or g.degree != self.degree:
            return False
        return self.chain.sift(g.images)[1] == self.degree

    def __repr__(self):
        gens = ";".join(g.cycle_string() for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self.order}, gens={gens})"

    @property
    def identity(self):
        return Permutation.identity(self.degree)

    def generator_string(self):
        """Canonical id: cycle strings of minimal_generators, found once."""
        return self._id or minimal_generators(self)._id


def minimal_generators(G):
    """G again, as the group H on a greedy small generating set: repeatedly
    the lexicographically least element of G outside H, which extends H's
    chain in place.  G and H keep their canonical generator string.

    That element is found by descent through G's chain on the base 0..d-1.
    The elements of G that agree with g on 0..i-1 form the coset g G^(i); its
    children g u_p G^(i+1), p in the basic orbit, send i to g(p), so they are
    visited in order of g(p).  A child lies inside H exactly when
    G^(i+1) <= H, read from the suffix orders of the two chains on the same
    base, and g u_p sifts through H.  The first child not inside H holds the
    answer, so the descent never backtracks.  u_p is inverted from the
    transversal's u_p^-1 only for the children visited.
    """
    d = G.degree
    H = PermGroup(d, ())
    while H.order < G.order:
        inside = [*map(eq, G.chain.suffix_orders()[1:], H.chain.suffix_orders()[1:])]
        g = tuple(range(d))
        for i, (_, _, level) in enumerate(G.chain.levels):
            for p in sorted(level, key=g.__getitem__):
                u = level[p] if p == i else sorted(range(d), key=level[p].__getitem__)
                child = tuple(map(g.__getitem__, u))  # g u_p
                if not (inside[i] and H.chain.sift(child)[1] == d):
                    g = child
                    break
        H._join(Permutation(g))
    H._id = G._id = ";".join(h.cycle_string() for h in H.generators) or "()"
    return H


# -- named families -----------------------------------------------------------


def trivial(n):
    return PermGroup(n, [])


def symmetric(n):
    if n < 0:
        raise InvalidParams("symmetric needs n >= 0")
    if n <= 1:
        return trivial(n)
    gens = [Permutation([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(Permutation(list(range(1, n)) + [0]))
    return PermGroup(n, gens)


def cyclic(n):
    if n < 1:
        raise InvalidParams("cyclic needs n >= 1")
    if n == 1:
        return trivial(1)
    return PermGroup(n, [Permutation(list(range(1, n)) + [0])])


def dihedral(n):
    """Rotations and reflections of the n-gon on its vertex set {0..n-1}.

    For n >= 3 this has order 2n; for n <= 2 the vertex action collapses
    (the reflection fixes both vertices of a 2-gon).
    """
    if n < 1:
        raise InvalidParams("dihedral needs n >= 1")
    rot = Permutation([(i + 1) % n for i in range(n)])
    ref = Permutation([(-i) % n for i in range(n)])
    return PermGroup(n, [rot, ref])


def elementary_abelian_2(involutions, degree=None):
    """Group generated by pairwise commuting involutions; validated as such."""
    gens = [g if isinstance(g, Permutation) else Permutation(g) for g in involutions]
    if degree is None:
        if not gens:
            raise InvalidParams("need at least one involution or explicit degree")
        degree = gens[0].degree
    for g in gens:
        if not (g * g).is_identity():
            raise NotInvolutions(f"{g.cycle_string()} has order > 2")
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            if g * h != h * g:
                raise NotCommuting(f"{g.cycle_string()} and {h.cycle_string()} do not commute")
    return PermGroup(degree, gens)


def hyperoctahedral(n):
    """Signed permutations of n coordinates, degree 2n, pairing points (2i, 2i+1)."""
    if n < 1:
        raise InvalidParams("hyperoctahedral needs n >= 1")
    return wreath(symmetric(2), symmetric(n))


def named_group(family, params):
    """Dispatcher for the named families (CLI-facing).  The order is not
    capped: only reading a group's `elements` enumerates it."""
    if family == "symmetric":
        return symmetric(int(params))
    if family == "cyclic":
        return cyclic(int(params))
    if family == "dihedral":
        return dihedral(int(params))
    if family == "hyperoctahedral":
        return hyperoctahedral(int(params))
    if family == "trivial":
        return trivial(int(params))
    raise InvalidParams(f"unknown group family {family!r}")


# -- products ------------------------------------------------------------------


def _shift(g, offset, degree):
    images = list(range(degree))
    for i, j in enumerate(g.images):
        images[i + offset] = j + offset
    return Permutation(images)


def direct_product(G, H):
    """G x H acting coordinatewise: G on the first deg(G) points, H on the rest."""
    degree = G.degree + H.degree
    gens = [_shift(g, 0, degree) for g in G.generators]
    gens += [_shift(h, G.degree, degree) for h in H.generators]
    out = PermGroup(degree, gens)
    if out.order != G.order * H.order:
        raise InternalInconsistency("direct product order mismatch")
    return out


def wreath(G, H):
    """Wreath product of G (degree m) by H (degree l) on m*l points.

    Point b*m + j lies in block b; generators are the l block-copies of G's
    generators plus H's generators permuting the blocks.  The order is checked
    against |G|^l * |H|.
    """
    m, l = G.degree, H.degree
    degree = m * l
    gens = []
    for b in range(l):
        gens.extend(_shift(g, b * m, degree) for g in G.generators)
    for h in H.generators:
        images = [h(b) * m + j for b in range(l) for j in range(m)]
        gens.append(Permutation(images))
    out = PermGroup(degree, gens)
    if out.order != G.order**l * H.order:
        raise InternalInconsistency("wreath product order mismatch")
    return out


# -- left-regular actions ------------------------------------------------------


def left_regular(table):
    """Permutation group of left multiplications L_a: x -> a*x of a finite
    group given by its multiplication table; faithful, transitive, of order n.

    The table is a group table exactly when its rows L_a are permutations,
    some column e is the identity map (a*e = a), and the rows generate a
    group of order n.  Then L_a(e) = a, so the n rows are distinct and make
    up that whole group.  L_a L_b is some L_c, and evaluating at e gives
    c = a*b: so L_a L_b = L_{a*b}, which is associativity.  The identity
    permutation is some L_f, a left identity, so f = f*e = e is two-sided,
    and L_a^-1 = L_b gives a*b = b*a = e.

    The rows extend one group's chain in place, one at a time, and a row
    that the group so far already contains is skipped: skipping it changes
    no group.  Each row that joins at least doubles the order, so at most
    log2(order) + 1 rows become generators.
    """
    n = len(table)
    rng = list(range(n))
    for row in table:
        if len(row) != n or sorted(row) != rng:
            raise NotAGroup("rows must be permutations of 0..n-1")
    if not any(all(table[a][e] == a for a in rng) for e in rng):
        raise NotAGroup("no column is the identity map")
    out = PermGroup(n, ())
    for row in table:
        out._join(Permutation(row))
    if out.order != n:
        raise NotAGroup(f"rows generate a group of order {out.order}, not {n}")
    return out


# -- stabiliser chains -----------------------------------------------------------


class StabiliserChain:
    """Stabiliser chain of a group on n points, grown in place by incremental
    deterministic Schreier–Sims (Seress 2003, Permutation Group Algorithms,
    ch. 4; Holt–Eick–O'Brien 2005, SCHREIERSIMS).

    levels[i] = (base point b, the strong generators fixing the base points
    before b, each with its inverse, the transversal): basic orbit point p
    -> u_p^-1, where u_p(b) = p.  Nothing is replaced.  A strong generator
    that fixes the whole base adds a level at the least point it moves.
    """

    def __init__(self, n, base=()):
        self.ident = tuple(range(n))
        self.levels = [(b, [], {b: self.ident}) for b in base]
        self.sifted = {}  # (level, p) -> count of strong generators s with (p, s) sifted

    def suffix_orders(self):
        """[|G^(i)|]: the basic orbit lengths multiplied from level i on."""
        return [*accumulate((len(W) for _, _, W in self.levels[::-1]), mul, initial=1)][::-1]

    def sift(self, g, start=0):
        """Strip g through levels start..; (residue, the level where it stopped)."""
        for j, (b, _, W) in enumerate(self.levels[start:], start):
            if g[b] != b:  # else u_p is the identity
                u = W.get(g[b])
                if u is None:
                    return g, j
                g = tuple(map(u.__getitem__, g))
        return g, len(self.levels)

    def extend(self, g):
        """Grow the chain to <G, g> for a one-line tuple g; False if G holds g.
        g's residue joins every level whose base prefix it fixes, and the
        Schreier–Sims loop runs from the deepest of them up to level 0."""
        h, j = self.sift(tuple(g))
        if h == self.ident:
            return False
        i = -1  # h joins levels i+1..j
        while True:
            self._add(h, i + 1, j)
            i = j
            while (found := self._residue(i)) is None:
                i -= 1
                if i < 0:
                    return True
            h, j = found

    def _add(self, h, lo, hi):
        """h joins the strong generators of levels lo..hi; their orbits grow."""
        if hi == len(self.levels):
            b = next(k for k, x in enumerate(h) if k != x)
            self.levels.append((b, [], {b: self.ident}))
        gen = (h, tuple(sorted(self.ident, key=h.__getitem__)))
        for _, S, W in self.levels[lo : hi + 1]:
            S.append(gen)
            points = list(W)
            for p in points:
                for s, s_inv in S:
                    if s[p] not in W:
                        W[s[p]] = tuple(map(W[p].__getitem__, s_inv))  # u_p^-1 s^-1
                        points.append(s[p])

    def _residue(self, i):
        """(residue, level where it stopped) of the first Schreier generator
        u_{s(p)}^-1 s u_p of level i that fails to sift, or None.  Each pair
        (p, s) is sifted once: it names the same element for good, and the
        group below only grows; once a failing pair's residue has joined the
        levels below, they hold it too."""
        _, S, W = self.levels[i]
        for p, w in W.items():
            k = self.sifted.get((i, p), 0)
            if k < len(S):
                u = tuple(sorted(self.ident, key=w.__getitem__))
                for s, _ in S[k:]:
                    self.sifted[i, p] = k = k + 1
                    y = tuple(map(W[s[p]].__getitem__, map(s.__getitem__, u)))
                    if y != self.ident and (r := self.sift(y, i + 1))[0] != self.ident:
                        return r
        return None


def schreier_sims_order(gens, n):
    """Order of the group generated by one-line tuples on n points, without
    enumerating it: the generators extend a chain from an empty base."""
    chain = StabiliserChain(n)
    for g in gens:
        chain.extend(g)
    return chain.suffix_orders()[0]


# -- rooted trees ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RootedTree:
    """A graded poset with a unique maximal element in which every non-root
    element has exactly one upper cover.  Leaves are the minimal elements."""

    poset: GradedPoset
    root: int
    leaves: tuple
    children: tuple


def rooted_tree(P):
    maximal = [i for i in range(P.n) if not P.up[i]]
    if len(maximal) != 1:
        raise InvalidParams(f"rooted tree needs exactly one root, found {len(maximal)}")
    root = maximal[0]
    for i in range(P.n):
        if i != root and len(P.up[i]) != 1:
            raise InvalidParams(f"element {i} has {len(P.up[i])} upper covers")
    leaves = tuple(i for i in range(P.n) if not P.down[i])
    return RootedTree(P, root, leaves, tuple(P.down[i] for i in range(P.n)))


def tree_from_children(spec):
    """Build a RootedTree from nested {"children": [...]} dicts; leaves are
    childless nodes.  Leaves get the low indices (left to right), internal
    nodes follow ordered by rank then traversal.  A node that is not a dict,
    or whose "children" is not a list, raises InvalidParams."""
    nodes = []  # [depth, child indices] in DFS preorder
    stack = [(spec, 0, None)]  # explicit stack: nesting depth is unbounded
    while stack:
        node, depth, parent = stack.pop()
        if not isinstance(node, dict):
            raise InvalidParams(f"tree node must be an object, got {type(node).__name__}")
        kids = node.get("children", [])
        if not isinstance(kids, list):
            raise InvalidParams(f"tree node 'children' must be a list, got {type(kids).__name__}")
        if parent is not None:
            nodes[parent][1].append(len(nodes))
        stack.extend((kid, depth + 1, len(nodes)) for kid in reversed(kids))
        nodes.append([depth, []])
    height = max(d for d, _ in nodes)
    ranks = [height - d for d, _ in nodes]
    is_leaf = [not kids for _, kids in nodes]
    order = sorted(
        range(len(nodes)),
        key=lambda i: (0, i) if is_leaf[i] else (1, ranks[i], i),
    )
    newid = {old: new for new, old in enumerate(order)}
    covers = []
    for old, (_, kids) in enumerate(nodes):
        covers.extend((newid[kid], newid[old]) for kid in kids)
    final_ranks = [0] * len(nodes)
    for old, new in newid.items():
        final_ranks[new] = ranks[old]
    return rooted_tree(GradedPoset(final_ranks, covers))


def _tree_encoding(T, top_down):
    """Every subtree's isomorphism class, as a key that is equal for
    isomorphic subtrees and orders them as nested tuples of their sorted
    child classes compare (shorter prefix first).  Classes are interned
    bottom-up, so comparing two walks down their first differing children,
    without recursion."""
    forms = {}  # class -> its children's classes, sorted
    interned = {}  # form -> class

    def compare(a, b):
        while a != b:
            fa, fb = forms[a], forms[b]
            i = next((i for i, (x, y) in enumerate(zip(fa, fb)) if x != y), None)
            if i is None:
                return len(fa) - len(fb)
            a, b = fa[i], fb[i]
        return 0

    key = cmp_to_key(compare)
    cls = {}
    for v in reversed(top_down):
        form = tuple(sorted((cls[c] for c in T.children[v]), key=key))
        cls[v] = interned.setdefault(form, len(interned))
        forms[cls[v]] = form
    return {v: key(c) for v, c in cls.items()}


def tree_automorphisms(T):
    """Automorphism group of a rooted tree, acting on its leaves.

    Per isomorphism class of child subtrees: the subtree automorphism
    generators on every member, then adjacent transpositions of isomorphic
    siblings (matched leaf-by-leaf in canonical order).  The group order is
    checked against the product of wreath orders class by class.  Every walk
    is a level order or an explicit stack, so the depth is unbounded.
    """
    top_down = [T.root]
    for v in top_down:
        top_down.extend(T.children[v])
    enc = _tree_encoding(T, top_down)
    kids = {v: sorted(T.children[v], key=lambda c: (enc[c], c)) for v in top_down}

    def classes(v):  # runs of isomorphic children
        return [list(run) for _, run in groupby(kids[v], key=enc.__getitem__)]

    canon_leaves, aut = {}, {}  # aut[v]: order of the subtree's automorphism group
    for v in reversed(top_down):
        canon_leaves[v] = tuple(x for c in kids[v] for x in canon_leaves[c]) or (v,)
        aut[v] = math.prod(aut[m[0]] ** len(m) * math.factorial(len(m)) for m in classes(v))

    pos = {leaf: k for k, leaf in enumerate(T.leaves)}
    gens = []
    tasks = [T.root]  # a node (its subtree's generators) or a sibling pair (a swap)
    while tasks:
        task = tasks.pop()
        if isinstance(task, tuple):
            images = list(range(len(T.leaves)))
            for x, y in zip(*(canon_leaves[v] for v in task)):
                images[pos[x]], images[pos[y]] = pos[y], pos[x]
            gens.append(Permutation(images))
            continue
        todo = []
        for members in classes(task):
            todo += members + list(zip(members, members[1:]))
        tasks.extend(reversed(todo))
    G = PermGroup(len(T.leaves), gens)
    if G.order != aut[T.root]:
        raise InternalInconsistency("tree automorphism order mismatch")
    return G


# -- subgroup sweep ----------------------------------------------------------------


def is_primitive(gens, n):
    """Whether the group generated by one-line tuples on n points is
    primitive: transitive, with no block but the points and the whole set.

    The least block holding 0 and j comes from the finest invariant partition
    that joins them (Atkinson 1975): for each joined pair (a, b) and each
    generator g, join the classes of g(a) and g(b), until no pair is left.
    Each join merges two classes, so the block is everything exactly when
    n - 1 joins were made.  A transitive group on a prime number of points is
    primitive, since its blocks share one size, which divides n."""
    orbit = [0]
    for a in orbit:
        orbit.extend(b for b in {g[a] for g in gens} if b not in orbit)
    if len(orbit) < n:
        return False
    if all(n % d for d in range(2, n)):
        return True
    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for j in range(1, n):
        root = list(range(n))
        root[j] = 0
        joined = [(0, j)]
        for a, b in joined:
            for g in gens:
                x, y = find(g[a]), find(g[b])
                if x != y:
                    root[y] = x
                    joined.append((x, y))
        if len(joined) < n - 1:
            return False
    return True


def subgroup_sweep(n):
    """One PermGroup per subgroup conjugacy class of S_n, for n <= SWEEP_MAX_N.

    Each class is represented by its least conjugate, comparing sorted element
    tuples.  Quotients by conjugate subgroups are isomorphic, so one
    representative per class suffices.

    The classes are found by cyclic extension of class representatives
    (Neubüser 1960; Holt–Eick–O'Brien, Handbook of Computational Group
    Theory, 2005).  Pick one generator per cyclic subgroup of S_n.  Starting
    from the trivial group, take each representative H with its normaliser
    N = N(H) in S_n, and close K = <gens(H), c> from H's stored generators for
    one chosen generator c per N-orbit of cyclic subgroups outside H (N acting
    by conjugation).  Element sets already seen are skipped; a new K is
    replaced by its least conjugate, which is stored with its conjugated
    generators as a new representative.

    This finds every class, by induction on the order.  A subgroup K != 1 has
    a maximal subgroup K' and some g in K outside K', and then K = <K', g>.
    K' is conjugate to a representative R = x K' x^-1, which is extended.  The
    cyclic subgroup <x g x^-1> lies outside R, so its N(R)-orbit holds the
    chosen c = y d y^-1 with y in N(R) and <d> = <x g x^-1>.  Since y R y^-1 =
    R, <gens(R), c> = y <R, x g x^-1> y^-1 = (y x) K (y x)^-1 is closed.
    Either it is new and canonicalised, or it was seen before, when its class
    was already represented; so K's class is found.

    The least conjugate is searched among few conjugators.  Its two smallest
    elements are the identity and its least non-identity element, which is
    at least m, the lex-least permutation of any cycle type found among K's
    non-identity elements; some conjugate contains m, so the least one does.
    A winning conjugator y therefore has y k y^-1 = m for some k in K of m's
    cycle type, and for each such k these y form the coset C(m) y_k of m's
    centraliser, where y_k maps the cycles of k onto those of m.  For h in K,
    y_k h^-1 carries h k h^-1 to m and K to y_k K y_k^-1, so one k per
    K-conjugacy class suffices.  Only these cosets are searched, not S_n.

    Most extensions are A_n or S_n, and those are decided from their
    generators, not closed (Wielandt, Finite Permutation Groups, 1964).  Let
    G be A_n if every generator of K is even and S_n otherwise, so K <= G.
    - Jordan's theorem: a primitive group that holds a 3-cycle contains A_n,
      and one that holds a transposition is S_n.  So a primitive K is G, and
      is not closed, when H or c holds a permutation that moves two or three
      points.
    - Bochert's theorem: a primitive group that does not contain A_n has
      index at least [(n+1)/2]! in S_n.  So any other primitive K is closed
      only until it holds more than n!/[(n+1)/2]! elements; past that it
      contains A_n and is G.
    - An intransitive or imprimitive K is closed in full.  A_n and S_n are
      primitive for n >= 3, and for n <= 2 every extension is S_n, which is
      transitive; so such a K is a proper subgroup of G, and |K| <= |G|/2 by
      Lagrange's theorem.  A closure stopped once it passed half of G, as
      the sweep's was before these theorems, never stopped on such a K: both
      find the same K, so the classes and generator strings are unchanged.
    """
    if not 1 <= n <= SWEEP_MAX_N:
        raise InvalidParams(f"subgroup_sweep supports 1 <= n <= {SWEEP_MAX_N}")
    from itertools import permutations as iperms

    full = sorted(iperms(range(n)))

    def conjugation(x):  # h -> x h x^-1
        after_inverse = itemgetter(*sorted(range(n), key=x.__getitem__))
        return lambda h: itemgetter(*after_inverse(h))(x)

    by = {x: conjugation(x) for x in full}

    def cycles(g):  # fixed points included, shortest first
        return sorted(_cycles(g), key=len)

    cycle_type = {g: tuple(map(len, cycles(g))) for g in full}
    least_of_type = {}  # cycle type -> its lex-least permutation
    cyclic_of = {}  # element -> the cyclic subgroup it generates
    cyclic_gens = {}  # cyclic subgroup -> its chosen generator
    for g in full:
        least_of_type.setdefault(cycle_type[g], g)
        cyclic_of[g] = C = frozenset(_tuple_close([g], n))
        cyclic_gens.setdefault(C, g)
    whole = frozenset(full)
    alternating = frozenset(g for g in full if (n - len(cycle_type[g])) % 2 == 0)
    bochert = math.factorial(n) // math.factorial((n + 1) // 2)
    jordan = {g for g in full if 2 <= n - cycle_type[g].count(1) <= 3}  # transpositions, 3-cycles
    centralisers = {}

    def least_conjugator(K, gens):  # gens generate K
        m = min(least_of_type[cycle_type[k]] for k in K if k != full[0])
        if m not in centralisers:
            centralisers[m] = [z for z in full if by[z](m) == m]
        by_gens = [by[g] for g in gens]
        y_ks = []  # y -> y y_k, for one k per K-class of m's cycle type
        done = set()
        for k in K:
            if k in done or cycle_type[k] != cycle_type[m]:
                continue
            k_class = [k]
            done.add(k)
            for a in k_class:
                for conj in by_gens:
                    b = conj(a)
                    if b not in done:
                        done.add(b)
                        k_class.append(b)
            y_k = [0] * n
            for a, b in zip(cycles(k), cycles(m)):
                for p, q in zip(a, b):
                    y_k[p] = q
            y_ks.append(itemgetter(*y_k))
        candidates = (y_k(z) for y_k in y_ks for z in centralisers[m])
        return min(candidates, key=lambda y: sorted(map(by[y], K)))

    trivial_set = frozenset([full[0]])
    reps = {trivial_set: ()}  # least conjugate -> its generators
    seen = {trivial_set}
    todo = [(trivial_set, ())]
    while todo:
        H, gens = todo.pop()
        normaliser = [by[y] for y in full if all(by[y](h) in H for h in gens)]
        jordan_H = not jordan.isdisjoint(H)
        extended = set()  # cyclic subgroups in the N(H)-orbits handled so far
        for C, c in cyclic_gens.items():
            if C in extended or c in H:
                continue
            extended.update(cyclic_of[conj(c)] for conj in normaliser)
            gens_K = gens + (c,)
            G = alternating if alternating.issuperset(gens_K) else whole
            if not is_primitive(gens_K, n):
                K = frozenset(_tuple_close(gens_K, n))
            elif jordan_H or c in jordan:
                K = G
            else:
                K = _tuple_close(gens_K, n, limit=bochert)
                K = G if len(K) > bochert else frozenset(K)
            if K in seen:
                continue
            seen.add(K)
            conj = by[least_conjugator(K, gens_K)]
            least = frozenset(map(conj, K))
            if least not in reps:
                seen.add(least)
                reps[least] = tuple(map(conj, gens_K))
                todo.append((least, reps[least]))
    return [  # each class as the group its descent grew, whose chain is complete
        minimal_generators(PermGroup(n, [Permutation(h) for h in reps[K]]))
        for K in sorted(reps, key=lambda K: (len(K), sorted(K)))
    ]


# -- generator files ----------------------------------------------------------------


def parse_generator_lines(lines, degree=None):
    """One permutation per line in 1-indexed cycle notation; '#' comments and
    blank lines are skipped.  All permutations are padded to a common degree.

    The group acts on the boolean algebra of its points, so a point above
    BOOLEAN_CAP is rejected before any permutation is built."""
    texts = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if line:
            texts.append(line)
    if not texts and degree is None:
        raise InvalidGenerators("no generators and no explicit degree")
    for text in texts:
        for digits in re.findall(r"\d+", text):
            # the length test keeps int() off a digit string of any size
            if len(digits.lstrip("0")) > len(str(BOOLEAN_CAP)) or int(digits) > BOOLEAN_CAP:
                raise InvalidGenerators(f"point above the boolean algebra cap {BOOLEAN_CAP}")
    perms = [Permutation.from_cycles(t, degree=degree) for t in texts]
    top = max([p.degree for p in perms] + [degree or 0, 0])
    return [Permutation(list(p.images) + list(range(p.degree, top))) for p in perms], top
