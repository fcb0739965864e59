"""Permutations of {0..n-1}, permutation groups held by stabiliser chains
(Schreier–Sims) with membership by sifting, and constructors for the group
families used throughout: symmetric, cyclic, dihedral (acting on n-gon
vertices), elementary abelian 2-groups, hyperoctahedral, wreath and direct
products, left-regular actions, and automorphism groups of rooted trees
acting on their leaves.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, cmp_to_key, total_ordering
from itertools import accumulate, groupby
from operator import itemgetter, mul

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
SWEEP_MAX_N = 6     # subgroup_sweep and the exhaustive CLI sweep stop here


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
    a limit, the closure stops as soon as it holds limit + 1 elements.

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
    """Subgroup of S_n held by its stabiliser chain on the base 0..n-1.

    The order is the product of the basic orbit lengths and membership is
    decided by sifting, so nothing is enumerated at construction and the
    order is not bounded.  The sorted element list is closed by _tuple_close
    (the closure subgroup_sweep uses too) only when `elements` is first read,
    so iteration is deterministic; that read raises GroupTooLarge for an
    order above GROUP_CAP.
    """

    def __init__(self, degree, generators):
        generators = tuple(g if isinstance(g, Permutation) else Permutation(g) for g in generators)
        for g in generators:
            if g.degree != degree:
                raise InvalidParams(f"generator degree {g.degree} != {degree}")
        self.degree = degree
        self.generators = generators
        self.transversals = schreier_sims([g.images for g in generators], degree, range(degree))[2]
        # suffix_orders[i] = |G^(i)|: the basic orbit lengths multiplied from level i on
        self.suffix_orders = [*accumulate(map(len, self.transversals[::-1]), mul, initial=1)][::-1]
        self.order = self.suffix_orders[0]

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
        return _sift(range(self.degree), self.transversals, g.images)[1] == self.degree

    def __repr__(self):
        gens = ";".join(g.cycle_string() for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self.order}, gens={gens})"

    @property
    def identity(self):
        return Permutation.identity(self.degree)

    def generator_string(self):
        """Canonical id: cycle strings of a greedy minimal generating set."""
        gens = minimal_generators(self)
        return ";".join(g.cycle_string() for g in gens) if gens else "()"


def minimal_generators(G):
    """Greedy small generating set: repeatedly the lexicographically least
    element of G outside the group H generated so far.

    That element is found by descent through G's chain on the base 0..d-1.
    The elements of G that agree with g on 0..i-1 form the coset g G^(i); its
    children g u_p G^(i+1), p in the basic orbit, send i to g(p), so they are
    visited in order of g(p).  A child lies inside H exactly when
    G^(i+1) <= H, read from the suffix orders of the two chains on the same
    base, and g u_p sifts through H.  The first child not inside H holds the
    answer, so the descent never backtracks.
    """
    d = G.degree
    gens = []
    H = PermGroup(d, gens)
    while H.order < G.order:
        g = tuple(range(d))
        for i, level in enumerate(G.transversals):
            inside = G.suffix_orders[i + 1] == H.suffix_orders[i + 1]
            for p in sorted(level, key=g.__getitem__):
                child = tuple(g[x] for x in level[p][0])
                if not (inside and _sift(range(d), H.transversals, child)[1] == d):
                    g = child
                    break
        gens.append(Permutation(g))
        H = PermGroup(d, gens)
    return gens


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

    The rows join the generators one at a time, and a row that the group
    generated so far already contains is skipped: skipping it changes no
    group.  Each row that joins at least doubles the order, so at most
    log2(order) + 1 groups are built.
    """
    n = len(table)
    rng = list(range(n))
    for row in table:
        if len(row) != n or sorted(row) != rng:
            raise NotAGroup("rows must be permutations of 0..n-1")
    if not any(all(table[a][e] == a for a in rng) for e in rng):
        raise NotAGroup("no column is the identity map")
    gens = []
    out = PermGroup(n, gens)
    for row in table:
        g = Permutation(row)
        if g not in out:
            gens.append(g)
            out = PermGroup(n, gens)
    if out.order != n:
        raise NotAGroup(f"rows generate a group of order {out.order}, not {n}")
    return out


# -- stabiliser chains -----------------------------------------------------------


def _sift(base, transversals, g, start=0):
    """Strip g through levels start..; (residue, the level where it stopped)."""
    for j in range(start, len(transversals)):
        p = g[base[j]]
        if p == base[j]:
            continue  # u_p is the identity
        u = transversals[j].get(p)
        if u is None:
            return g, j
        g = tuple(map(u[1].__getitem__, g))
    return g, len(transversals)


def schreier_sims(gens, n, base=()):
    """Stabiliser chain of the group generated by one-line tuples on n points:
    deterministic Schreier–Sims (Holt–Eick–O'Brien, SCHREIERSIMS).

    The base starts with `base`, whose levels may have trivial basic orbits,
    and is extended by the least point that a new strong generator moves.
    Returns the base and, per level i, the strong generators fixing base[:i]
    and the transversal: basic orbit point p -> (u_p, u_p^-1), u_p(base[i]) = p.
    """
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
                h, j = _sift(base, U, compose(U[i][sp[base[i]]][1], sp), i + 1)
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


def schreier_sims_order(gens, n):
    """Order of the group generated by one-line tuples on n points, without
    enumerating it: the product of the basic orbit lengths of its chain."""
    return math.prod(map(len, schreier_sims(gens, n)[2]))


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

    A closure that passes half of A_n (all generators even) or of S_n is
    that whole group, by Lagrange's theorem, and is not closed further.
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
        extended = set()  # cyclic subgroups in the N(H)-orbits handled so far
        for C, c in cyclic_gens.items():
            if C in extended or c in H:
                continue
            extended.update(cyclic_of[conj(c)] for conj in normaliser)
            gens_K = gens + (c,)
            G = alternating if alternating.issuperset(gens_K) else whole
            K = _tuple_close(gens_K, n, limit=len(G) // 2)
            K = G if len(K) > len(G) // 2 else frozenset(K)
            if K in seen:
                continue
            seen.add(K)
            conj = by[least_conjugator(K, gens_K)]
            least = frozenset(map(conj, K))
            if least not in reps:
                seen.add(least)
                reps[least] = tuple(map(conj, gens_K))
                todo.append((least, reps[least]))
    out = []
    for gens in reps.values():
        G = PermGroup(n, [Permutation(h) for h in gens])
        out.append(PermGroup(n, minimal_generators(G)))
    out.sort(key=lambda G: (G.order, G.elements))
    return out


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
