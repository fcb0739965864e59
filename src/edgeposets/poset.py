"""Finite graded posets: construction, order queries, duality, combination,
isomorphism testing, and JSON/DOT serialization.

Elements are dense integer indices 0..n-1 with explicitly stored ranks; the
partial order is the reflexive-transitive closure of the Hasse covers, and
every cover must raise rank by exactly one.  Labels are display-only and never
affect semantics.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from functools import cached_property

from .errors import (
    DuplicateCover,
    IndexOutOfRange,
    InternalInconsistency,
    InvalidMorphism,
    InvalidParams,
    NotGraded,
    TooLarge,
)

BOOLEAN_CAP = 16    # boolean_algebra ceiling: 2^16 elements
RANK_CAP = 1_000_000  # poset_from_json rejects larger ranks (rank_vector has max rank + 1 entries)


class GradedPoset:
    """Immutable finite graded poset.

    Instances are safe to share between threads; all derived structures are
    computed lazily and cached.  Disconnected posets, and posets whose minimum
    occupied rank is nonzero, are allowed.
    """

    def __init__(self, ranks, covers, labels=None):
        ranks = tuple(int(r) for r in ranks)
        n = len(ranks)
        for r in ranks:
            if r < 0:
                raise NotGraded(f"negative rank {r}")
        seen = {}  # in input order, so presorted covers sort in linear time
        for pair in covers:
            x, y = pair
            if not (0 <= x < n and 0 <= y < n):
                raise IndexOutOfRange(f"cover ({x}, {y}) outside 0..{n - 1}")
            if (x, y) in seen:
                raise DuplicateCover(f"cover ({x}, {y}) repeated")
            if ranks[y] != ranks[x] + 1:
                raise NotGraded(
                    f"cover ({x}, {y}) jumps rank {ranks[x]} -> {ranks[y]}"
                )
            seen[x, y] = None
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise IndexOutOfRange("labels length differs from element count")
        self.n = n
        self.ranks = ranks
        self.covers = tuple(sorted(seen))
        self.labels = labels

    def __repr__(self):
        return f"GradedPoset(n={self.n}, covers={len(self.covers)}, rank_vector={self.rank_vector})"

    def label(self, i):
        return self.labels[i] if self.labels is not None else str(i)

    @cached_property
    def max_rank(self):
        return max(self.ranks) if self.ranks else -1

    @cached_property
    def rank_vector(self):
        """Tuple whose i-th entry counts the elements of rank i."""
        vec = [0] * (self.max_rank + 1)
        for r in self.ranks:
            vec[r] += 1
        return tuple(vec)

    @cached_property
    def elements_by_rank(self):
        by = [[] for _ in range(self.max_rank + 1)]
        for i, r in enumerate(self.ranks):
            by[r].append(i)
        return tuple(tuple(xs) for xs in by)

    @cached_property
    def up(self):
        """up[x]: ascending tuple of upper covers of x (self.covers is sorted)."""
        adj = [[] for _ in range(self.n)]
        for x, y in self.covers:
            adj[x].append(y)
        return tuple(map(tuple, adj))

    @cached_property
    def down(self):
        """down[y]: ascending tuple of lower covers of y (self.covers is sorted)."""
        adj = [[] for _ in range(self.n)]
        for x, y in self.covers:
            adj[y].append(x)
        return tuple(map(tuple, adj))

    @cached_property
    def cover_set(self):
        return frozenset(self.covers)

    def leq(self, x, y):
        """True iff x <= y: y is reachable from x along covers (or x == y),
        by an upward search that stops below y's rank."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise IndexOutOfRange(f"element out of range: {x}, {y}")
        if x == y:
            return True
        target_rank = self.ranks[y]
        if self.ranks[x] >= target_rank:
            return False
        frontier = [x]
        seen = {x}
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.up[u]:
                    if v == y:
                        return True
                    if v not in seen and self.ranks[v] < target_rank:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return False

    def dual(self):
        """Same elements, covers reversed, ranks flipped about max_rank."""
        m = self.max_rank
        return GradedPoset(
            tuple(m - r for r in self.ranks),
            tuple((y, x) for x, y in self.covers),
            self.labels,
        )


def chain(length):
    """Chain with `length` elements at ranks 0..length-1."""
    return GradedPoset(range(length), [(i, i + 1) for i in range(length - 1)])


def antichain(size, rank=0):
    return GradedPoset([rank] * size, [])


def boolean_algebra(n):
    """Subsets of an n-set as bit-masks, ordered by inclusion.

    Element x is the bit-mask of a subset of {0..n-1}; rank is the popcount
    and covers are single-bit insertions.  Labels show 1-indexed subsets.
    """
    if n < 0:
        raise InvalidParams("boolean_algebra needs n >= 0")
    if n > BOOLEAN_CAP:
        raise TooLarge(f"boolean_algebra cap is n <= {BOOLEAN_CAP}")
    size = 1 << n
    ranks = [x.bit_count() for x in range(size)]
    covers = [
        (x, x | (1 << i)) for x in range(size) for i in range(n) if not (x >> i) & 1
    ]
    labels = [subset_label(x) for x in range(size)]
    return GradedPoset(ranks, covers, labels)


def subset_label(mask):
    """Display form of a bit-mask subset, 1-indexed: 0b101 -> '{1,3}'."""
    pts = [str(i + 1) for i in range(mask.bit_length()) if (mask >> i) & 1]
    return "{" + ",".join(pts) + "}"


def mask_to_points(mask):
    """Bit-mask subset as a sorted list of 0-indexed points."""
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def combine(P, Q):
    """Cartesian product of two posets, the only combination (disjoint unions
    are disjoint_union's).

    Product elements are pairs (p, q) indexed p * Q.n + q with rank the sum of
    coordinate ranks; product covers change exactly one coordinate by a cover.
    """
    ranks = [P.ranks[i] + Q.ranks[j] for i in range(P.n) for j in range(Q.n)]
    covers = []
    for x, y in P.covers:
        covers.extend((x * Q.n + j, y * Q.n + j) for j in range(Q.n))
    for x, y in Q.covers:
        covers.extend((i * Q.n + x, i * Q.n + y) for i in range(P.n))
    labels = None
    if P.labels is not None and Q.labels is not None:
        labels = tuple(f"({P.labels[i]},{Q.labels[j]})" for i in range(P.n) for j in range(Q.n))
    return GradedPoset(ranks, covers, labels)


def disjoint_union(posets):
    """Disjoint union of a sequence of posets, indexed in block order."""
    ranks = []
    covers = []
    offset = 0
    for P in posets:
        ranks.extend(P.ranks)
        covers.extend((x + offset, y + offset) for x, y in P.covers)
        offset += P.n
    return GradedPoset(ranks, covers)


# -- isomorphism ------------------------------------------------------------


def _stable_colors(P):
    """Iterated neighborhood refinement; isomorphism-invariant element colors."""
    colors = [(P.ranks[i], len(P.up[i]), len(P.down[i])) for i in range(P.n)]
    while True:
        key = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in P.up[i])),
                tuple(sorted(colors[j] for j in P.down[i])),
            )
            for i in range(P.n)
        ]
        relabel = {k: c for c, k in enumerate(sorted(set(key)))}
        new = [relabel[k] for k in key]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def is_isomorphic(P, Q):
    """Search for a rank- and cover-preserving bijection with cover-preserving
    inverse.  Returns (found, mapping) with mapping[i] the image of element i.

    Backtracking with rank-vector, degree, and refined-color pruning; intended
    for desk-scale operands (keep below ~2000 elements).  Elements are placed
    in a fixed order: the most constrained unplaced element next to a placed
    one, else the most constrained of all.  One placed neighbour, its anchor,
    limits an element's candidates to the covers of the anchor's image.
    """
    if P.n != Q.n or len(P.covers) != len(Q.covers):
        return False, None
    if sorted(P.ranks) != sorted(Q.ranks):
        return False, None
    cp = _stable_colors(P)
    cq = _stable_colors(Q)
    if sorted(cp) != sorted(cq):
        return False, None
    # group rank alongside color: refinement starts from rank so colors already
    # separate ranks, but keep the pairing explicit for candidate lists
    cand = defaultdict(list)
    for j in range(Q.n):
        cand[(Q.ranks[j], cq[j])].append(j)

    def key(i):
        return len(cand[(P.ranks[i], cp[i])]), P.ranks[i], i

    # each element enters the heap once, when its first neighbour is placed,
    # and leaves it when placed itself
    order, anchor = [], [None] * P.n
    fallback = iter(sorted(range(P.n), key=key))
    frontier = []  # heap of (key, element): unplaced, next to a placed element
    placed = [False] * P.n
    while len(order) < P.n:
        p = heappop(frontier)[1] if frontier else next(x for x in fallback if not placed[x])
        placed[p] = True
        order.append(p)
        for v in P.up[p] + P.down[p]:
            if anchor[v] is None and not placed[v]:
                anchor[v] = p
                heappush(frontier, (key(v), v))
    mapping = [-1] * P.n
    used = [False] * Q.n
    qcovers = Q.cover_set

    def fits(p, q):
        # every placed upper and lower cover of p must stay a cover under p -> q
        ups = all(mapping[u] == -1 or (q, mapping[u]) in qcovers for u in P.up[p])
        return ups and all(mapping[d] == -1 or (mapping[d], q) in qcovers for d in P.down[p])

    # explicit backtracking stack: stack[pos] is the next candidate index to
    # try for element order[pos]; the search has found a bijection once every
    # element is placed
    stack = [0]
    while stack and len(stack) <= P.n:
        pos = len(stack) - 1
        p = order[pos]
        if mapping[p] != -1:
            used[mapping[p]] = False
            mapping[p] = -1
        a = anchor[p]
        if a is None:
            options = cand[(P.ranks[p], cp[p])]
        else:
            near = Q.up[mapping[a]] if P.ranks[p] > P.ranks[a] else Q.down[mapping[a]]
            options = [j for j in near if cq[j] == cp[p]]
        i = stack[pos]
        while i < len(options) and (used[options[i]] or not fits(p, options[i])):
            i += 1
        if i == len(options):
            stack.pop()
            continue
        stack[pos] = i + 1
        mapping[p] = options[i]
        used[options[i]] = True
        stack.append(0)
    if not stack:
        return False, None
    witness = tuple(mapping)
    # final verification: all covers map to covers (inverse follows by counting)
    if not all((witness[x], witness[y]) in qcovers for x, y in P.covers):
        raise InternalInconsistency("isomorphism search returned a non-cover image")
    return True, witness


def is_self_dual(P):
    found, _ = is_isomorphic(P, P.dual())
    return found


# -- morphisms ---------------------------------------------------------------


class PosetMorphism:
    """Rank-preserving, cover-preserving map between graded posets.

    Cover preservation is equivalent to order preservation here: every
    relation in a finite graded poset factors through covers, and a
    rank-preserving image of a cover has nothing strictly between.
    Bijective morphisms need not be isomorphisms (no inverse is required).
    """

    __slots__ = ("source", "target", "image")

    def __init__(self, source, target, image):
        image = tuple(image)
        if len(image) != source.n:
            raise InvalidMorphism("image length differs from source size")
        for i, j in enumerate(image):
            if not 0 <= j < target.n:
                raise InvalidMorphism(f"image of {i} out of range: {j}")
            if source.ranks[i] != target.ranks[j]:
                raise InvalidMorphism(
                    f"rank not preserved at {i}: {source.ranks[i]} vs {target.ranks[j]}"
                )
        tcovers = target.cover_set
        for x, y in source.covers:
            if (image[x], image[y]) not in tcovers:
                raise InvalidMorphism(
                    f"cover ({x}, {y}) maps to non-cover ({image[x]}, {image[y]})"
                )
        self.source = source
        self.target = target
        self.image = image

    def __call__(self, i):
        return self.image[i]

    def __repr__(self):
        return f"PosetMorphism({self.source.n} -> {self.target.n})"

    @classmethod
    def identity(cls, P):
        return cls(P, P, range(P.n))

    def then(self, other):
        """Composite morphism: apply self first, then other."""
        return PosetMorphism(
            self.source, other.target, tuple(other.image[j] for j in self.image)
        )

    def is_bijective(self):
        return self.source.n == self.target.n and len(set(self.image)) == self.source.n

    def is_isomorphism(self):
        """Bijective with cover-preserving inverse.

        A bijective morphism maps the source covers injectively into the
        target covers, so equality of cover counts forces the inverse to be
        cover-preserving as well.
        """
        return self.is_bijective() and len(self.source.covers) == len(self.target.covers)

    def inverse(self):
        """The inverse isomorphism, built unchecked: it keeps ranks as self
        does, and is_isomorphism() proves that it sends covers to covers."""
        if not self.is_isomorphism():
            raise InvalidMorphism("not an isomorphism; no inverse")
        inv = PosetMorphism.__new__(PosetMorphism)
        inv.source, inv.target = self.target, self.source
        inv.image = tuple(sorted(range(self.source.n), key=self.image.__getitem__))
        return inv


# -- serialization -----------------------------------------------------------


def poset_to_json(P):
    """JSON-ready dict: {"ranks": [...], "covers": [[low, high], ...], "labels": [...]}."""
    obj = {"ranks": list(P.ranks), "covers": [list(c) for c in P.covers]}
    if P.labels is not None:
        obj["labels"] = list(P.labels)
    return obj


def poset_from_json(obj):
    """Poset from the dict form of poset_to_json; malformed input raises
    InvalidParams rather than reaching GradedPoset."""
    try:
        ranks = obj["ranks"]
        covers = obj["covers"]
        labels = obj.get("labels")
    except (KeyError, TypeError) as exc:
        raise InvalidParams(f"poset JSON needs 'ranks' and 'covers': {exc}") from exc
    # type(...) is int also rejects bools and floats, which int() would accept
    if not isinstance(ranks, list) or not all(type(r) is int for r in ranks):
        raise InvalidParams("poset JSON 'ranks' must be a list of integers")
    if ranks and max(ranks) > RANK_CAP:
        raise InvalidParams(f"poset JSON rank {max(ranks)} exceeds the cap {RANK_CAP}")
    if not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 and type(c[0]) is int and type(c[1]) is int
        for c in covers
    ):
        raise InvalidParams("poset JSON 'covers' must be a list of [low, high] integer pairs")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(s, str) for s in labels)
    ):
        raise InvalidParams("poset JSON 'labels' must be a list of strings")
    return GradedPoset(ranks, [tuple(c) for c in covers], labels)


def poset_to_dot(P, name="poset"):
    """DOT source drawing covers upward, one row of nodes per rank."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
    for i in range(P.n):
        lbl = P.label(i).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
        lines.append(f'  n{i} [label="{lbl}"];')
    for r, elems in enumerate(P.elements_by_rank):
        if elems:
            row = " ".join(f"n{i};" for i in elems)
            lines.append(f"  {{ rank=same; {row} }}")
    for x, y in P.covers:
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
