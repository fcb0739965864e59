"""Exact verification of rank symmetry/unimodality, strong Spernerity, Peck
and unitary Peck properties, plus symmetric chain decompositions.

No floating point anywhere.  The rank of a Lefschetz power U^{n-2i} of the
all-ones order-raising map, from rank i to rank n-i, has one certified route
(_power_rank).  Its saturated chain counts are taken modulo a word-sized
prime p, each element holding one packed int with a 64-bit slot per rank-i
element, so no integer power is built; the packed rows are put in echelon
form mod p a block of columns at a time (_echelon_mod_p), in a Cuthill-McKee
order of the Hasse diagram that keeps the fill low (_slot_order).  The rank
is certified over the rationals from both sides: rank_p <= rank_Q always (a
nonzero minor mod p is a nonzero integer minor), and each rank drop is
confirmed by integer kernel vectors, rationally reconstructed from the mod-p
kernel and pushed up through the covers with exact integer arithmetic.  When
a certificate cannot be found, the dense integer power is built and
ExactMatrix.rank decides by fraction-free Bareiss elimination, the reference
the tests hold every rank to.

The k-antichain numbers d_k come from Greene-Kleitman duality: one
minimum-cost flow on the split-element cover network, where bypass arcs let
chains pass elements they do not count, gives every d_k, and posets of at
most DEFAULT_ORACLE_THRESHOLD (12) elements are cross-checked against an
exhaustive search.

peck_report is the one place that decides Peck, by routes in this order:
the rank profile, then the certified Lefschetz ranks of the all-ones
order-raising map (unitary Peck), then the same ranks mod p for one seeded
draw of cover weights (weighted_lefschetz_certificate), then the flow.  A yes
from either Lefschetz map is exact: its powers have integer entries, so a full
rank mod p is the full rank over the rationals, and a map with full-rank
powers proves Peck.  A failed draw proves nothing, so the flow decides when
both maps fail, and is the oracle of the tests; is_unitary_peck never runs it.
"""

from __future__ import annotations

import random
import struct
import sys
from collections import deque
from dataclasses import dataclass
from itertools import chain
from math import isqrt, lcm
from operator import mul

from .edges import h_bn_decomposition
from .errors import InternalInconsistency, InvalidChainDecomposition, InvalidParams
from .poset import GradedPoset, boolean_algebra

DEFAULT_ORACLE_THRESHOLD = 12  # cross-check d_k exhaustively up to this size

# Ranks are taken modulo RANK_PRIME, one matrix row packed into one int with a
# 64-bit slot per column.  Adding (p - f) * T, T a pivot row reduced mod p, to
# a row grows each slot by less than p^2, so a slot stays below p + r * p^2,
# which is under 2^64 while the r pivots so far number fewer than 2^23: no
# slot ever carries into the next.  The back substitution sums fewer than cols
# such products per slot.
RANK_PRIME = 1048573  # the largest prime below 2^20
_SLOT_BITS = 64
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_BLOCK = 8  # columns per elimination block (see _echelon_mod_p)
_MAX_TERMS = 1 << 23
_RECON_BOUND = isqrt(RANK_PRIME // 2)  # 2 * N * D < p: n/d is unique if it exists

# The weighted Lefschetz certificate draws one weight in 1..2^WEIGHT_BITS per
# cover from random.Random(WEIGHT_SEED), so every certificate can be replayed.
WEIGHT_SEED = 1980
WEIGHT_BITS = 16


class ExactMatrix:
    """Dense matrix of ints; all arithmetic exact, no floating point anywhere."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        entries = [list(row) for row in entries]
        if cols is None:
            cols = len(entries[0]) if entries else 0
        if cols < 0:
            raise InvalidParams(f"cols={cols} is negative")
        if any(len(row) != cols for row in entries):
            raise InvalidParams(f"every row needs cols={cols} entries")
        # type(...) is int also rejects bools and floats, on which the exact
        # divisions of rank() would silently round
        if not all(type(x) is int for row in entries for x in row):
            raise InvalidParams("matrix entries must be ints")
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    def rank(self):
        """Exact rank over the rationals by fraction-free (Bareiss)
        elimination.  After r pivots each entry still to be eliminated is,
        up to sign, an (r+1) x (r+1) minor of the matrix, so every division
        by the previous pivot is exact.  No modulus is involved: this is the
        reference for lefschetz_power_rank's certified mod-p ranks, and the
        rank it falls back to."""
        m = [row[:] for row in self.entries]
        rows, cols = self.rows, self.cols
        r = 0
        prev = 1
        for c in range(cols):
            piv = next((i for i in range(r, rows) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            rowr = m[r]
            mrc = rowr[c]
            for rowi in m[r + 1:]:
                mic = rowi[c]
                for j in range(c + 1, cols):
                    rowi[j] = (mrc * rowi[j] - mic * rowr[j]) // prev
                rowi[c] = 0
            prev = mrc
            r += 1
        return r


def _echelon_mod_p(rows, cols):
    """Row echelon form mod p of packed rows whose slots are all below p, as
    [(pivot column c, packed pivot row)], each pivot row reduced mod p and
    scaled to 1 at c, with slot j holding column c + j.  The list `rows` is
    used up: the elimination works in it, so an updated row frees its old int
    at once.

    The pivot of column c is the first remaining row, in order, with a
    nonzero entry at c, and each later row with entry f gains (p - f) times
    the pivot.  The columns go in blocks of _BLOCK.  At a block's start each
    remaining row holds the block's first column in slot 0, and its window is
    `row & low`, its low _BLOCK slots; entries are read from the windows.  An
    update adds the multiple of the pivot, shifted to the row's alignment, to
    the row, and the same multiple of the shifted pivot's low slots to the
    window.  Each update adds less than p^2 to a slot, so no slot ever
    carries (see RANK_PRIME) and the window equals `row & low` at all times.
    A row is thus rewritten only when it is updated and once per block, when
    the survivors shift, and a row whose window is zero sits the block out:
    none of its entries can become nonzero there.

    The order of the rows and of the columns sets the pivots and the fill,
    never the rank; _chain_counts_mod_p takes both from _slot_order.
    """
    p = RANK_PRIME
    pivots = []
    for c0 in range(0, cols, _BLOCK):
        width = min(_BLOCK, cols - c0)
        low = (1 << (_SLOT_BITS * width)) - 1
        windows = [row & low for row in rows]
        live = [t for t, w in enumerate(windows) if w]
        for j in range(width):
            s = _SLOT_BITS * j
            at = None
            for k, t in enumerate(live):
                w = windows[t]
                f = (w >> s & _SLOT_MASK) % p
                if not f:
                    continue
                if at is None:
                    at = k
                    pivot = _reduce_packed(rows[t] >> s, cols - c0 - j, pow(f, -1, p))
                    pivots.append((c0 + j, pivot))
                    rows[t] = None
                    shifted = pivot << s
                    shifted_low = shifted & low
                    continue
                g = p - f
                rows[t] += g * shifted
                windows[t] = w + g * shifted_low
            if at is not None:
                del live[at]
        rows[:] = [row for row in rows if row is not None]
        if not rows:
            break
        for t, row in enumerate(rows):
            rows[t] = row >> (_SLOT_BITS * width)
    return pivots


def _kernel_mod_p(pivots, cols):
    """Kernel basis mod p, one vector per non-pivot column: 1 there, 0 at the
    other free columns, and the pivot columns solved by back substitution.
    All vectors are solved at once: value[j] packs column j of every vector,
    one slot per free column.  Each pivot row reads only the columns past
    its pivot whose value is nonzero so far (the support)."""
    p = RANK_PRIME
    pivot_cols = {c for c, _ in pivots}
    free = [c for c in range(cols) if c not in pivot_cols]
    value = [0] * cols
    for t, c in enumerate(free):
        value[c] = 1 << (_SLOT_BITS * t)
    waiting = free[:]
    support = []
    for c, row in reversed(pivots):
        # the pivot row has a 1 at c: v[c] = -sum over j > c of row[j] v[j]
        while waiting and waiting[-1] > c:
            support.append(waiting.pop())
        entries = memoryview(row.to_bytes((cols - c) * 8, sys.byteorder)).cast("Q")
        acc = 0
        for j in support:
            a = entries[j - c]
            if a:
                acc += (p - a) * value[j]
        if acc:
            value[c] = _reduce_packed(acc, len(free))
            if value[c]:
                support.append(c)
    columns = [_unpack(v, len(free)) for v in value]
    return list(zip(*columns))


def _pack(values):
    """One int holding each value (0 <= value < 2^64) in its own 64-bit slot."""
    return int.from_bytes(struct.pack(f"<{len(values)}Q", *values), "little")


def _unpack(row, slots):
    return struct.unpack(f"<{slots}Q", row.to_bytes(slots * 8, "little"))


def _reduce_packed(row, slots, scale=1):
    """The packed row times `scale`, every slot reduced mod p."""
    p = RANK_PRIME
    return _pack([x * scale % p for x in _unpack(row, slots)])


def _rational(a):
    """(n, d) with n = a * d mod p, |n|, d <= _RECON_BOUND, or None
    (Wang's rational reconstruction by the half-extended Euclid algorithm)."""
    r0, r1 = RANK_PRIME, a
    s0, s1 = 0, 1
    while r1 > _RECON_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if not 0 < abs(s1) <= _RECON_BOUND:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _integer_vector(v):
    """The reconstructed rational vector of the mod-p vector v with
    denominators cleared, as [(index, nonzero entry)], or None."""
    fracs = []
    for j, a in enumerate(v):
        if a:
            frac = _rational(a)
            if frac is None:
                return None
            fracs.append((j, frac))
    scale = lcm(*(d for _, (_, d) in fracs))
    return [(j, n * (scale // d)) for j, (n, d) in fracs]


def lefschetz_power_matrix(P, i):
    """U^{n-2i} restricted to rank i -> rank n-i, U the all-ones order-raising
    map: rows are indexed by the rank-(n-i) elements, columns by the rank-i
    elements, and entry (y, x) counts the saturated chains from x up to y.

    Each row walks P.down from y one rank at a time, carrying the number of
    chains from y to each element reached, so no intermediate power is built.
    Only lefschetz_power_rank's fallback and the tests build this matrix.
    """
    n = P.max_rank
    if not 0 <= 2 * i < n:
        raise InvalidParams(f"need 0 <= i < {n}/2")
    down = P.down
    lows = P.elements_by_rank[i]
    rows = []
    for y in P.elements_by_rank[n - i]:
        counts = {y: 1}
        for _ in range(n - 2 * i):
            below = {}
            for z, c in counts.items():
                for x in down[z]:
                    below[x] = below.get(x, 0) + c
            counts = below
        rows.append([counts.get(x, 0) for x in lows])
    return ExactMatrix(rows, cols=len(lows))


def lefschetz_power_rank(P, i):
    """Exact rank of lefschetz_power_matrix(P, i), without building it
    unless its certificate fails (see _power_rank).  Cached on the poset."""
    cache = vars(P).setdefault("_lefschetz_ranks", {})
    if i not in cache:
        cache[i] = _power_rank(P, i)
    return cache[i]


def _power_rank(P, i):
    """lefschetz_power_rank's uncached computation, by the one certified
    route.  A full rank of the packed power mod p (_chain_counts_mod_p,
    _echelon_mod_p) is the rank.  Otherwise each mod-p kernel vector is
    rationally reconstructed (_integer_vector) and pushed up n - 2i ranks
    through P.up in exact integers: one step sends the value at z to every
    upper cover of z, so after n - 2i steps the value at y is the sum over x
    of (chains from x to y) * v[x], which is U^{n-2i} v at y.  All zeros
    proves U^{n-2i} v = 0, so the independent kernel vectors bound the rank
    by rank_p.  Past the packing (_MAX_TERMS rows or columns, see
    RANK_PRIME), after a failed reconstruction, or after a push that leaves
    a nonzero value, the dense power goes straight to Bareiss elimination
    (ExactMatrix.rank).
    """
    n = P.max_rank
    if not 0 <= 2 * i < n:
        raise InvalidParams(f"need 0 <= i < {n}/2")
    cols = P.rank_vector[i]
    if max(cols, P.rank_vector[n - i]) < _MAX_TERMS:
        pivots = _echelon_mod_p(_chain_counts_mod_p(P, i), cols)
        if len(pivots) == min(P.rank_vector[n - i], cols):
            return len(pivots)
        lows = _slot_order(P)[i]
        up = P.up
        for v in _kernel_mod_p(pivots, cols):
            w = _integer_vector(v)
            if w is None:
                break
            values = {lows[j]: x for j, x in w}
            for _ in range(n - 2 * i):
                above = {}
                for z, c in values.items():
                    for y in up[z]:
                        above[y] = above.get(y, 0) + c
                values = {y: c for y, c in above.items() if c}
            if values:
                break
        else:
            return len(pivots)
    return lefschetz_power_matrix(P, i).rank()


def _slot_order(P):
    """The elements of each rank in Cuthill-McKee order: a breadth-first
    search over the Hasse diagram, following upper and lower covers, that
    starts from the first element of the lowest rank, visits the new
    neighbours of each element in ascending order of their cover counts, and
    starts again from the lowest-ranked element not yet reached.  Cached on
    the poset.

    The packed rows of a Lefschetz power give rank-i elements their slots,
    and rank-(n-i) elements their rows, in this order.  Elements close in
    the diagram share chains, so rows and columns near each other share
    their nonzeros, and the echelon form fills in less than in the input's
    own numbering, which may be arbitrary.  The rank does not depend on the
    order, which only permutes the rows and the columns of the power.
    """
    layers = vars(P).get("_slot_layers")
    if layers is None:
        up, down, ranks = P.up, P.down, P.ranks
        degree = [len(a) + len(b) for a, b in zip(up, down)]
        seen = [False] * P.n
        layers = tuple([] for _ in range(P.max_rank + 1))
        for start in chain.from_iterable(P.elements_by_rank):
            if seen[start]:
                continue
            seen[start] = True
            queue = [start]
            for x in queue:
                layers[ranks[x]].append(x)
                fresh = [y for y in up[x] + down[x] if not seen[y]]
                if fresh:
                    fresh.sort(key=degree.__getitem__)
                    for y in fresh:
                        seen[y] = True
                    queue += fresh
        P._slot_layers = layers
    return layers


def _chain_counts_mod_p(P, i, weights=None):
    """The rows of lefschetz_power_matrix(P, i) mod p, packed, permuted: the
    row of the t-th rank-(n-i) element of _slot_order(P) holds in slot u the
    chain count from the u-th rank-i element of that order.  Permuting the
    rows and the columns of a matrix keeps its rank, and the order keeps the
    fill of _echelon_mod_p low.

    Rank i starts as unit slots, and each element of a higher rank sums the
    ints of its lower covers, so only two ranks are held at once.  Every slot
    of the current rank is at most `bound`, which a step multiplies by the
    largest lower-cover count; the slots are reduced mod p only before a step
    could pass 2^63, so a slot never spills into its neighbour, and once more
    at the end if they could reach p, as _echelon_mod_p needs.

    With a weight table (weights[y] holds one positive int per lower cover,
    aligned with P.down[y]), each element sums its lower covers' ints times
    their weights instead, and a step multiplies `bound` by the largest
    lower-cover weight sum: the rows are then those of the power of the
    weighted order-raising map, slot u of row y summing, over the saturated
    chains from x to y, the product of the weights along the chain.
    """
    n = P.max_rank
    by_rank = P.elements_by_rank
    order = _slot_order(P)
    down = P.down
    cols = P.rank_vector[i]
    count = {x: 1 << (_SLOT_BITS * t) for t, x in enumerate(order[i])}
    bound = 1
    for r in range(i + 1, n - i + 1):
        layer = by_rank[r]
        if weights is None:
            widest = max((len(down[y]) for y in layer), default=0)
        else:
            widest = max((sum(weights[y]) for y in layer), default=0)
        if bound * widest >= 1 << 63:
            count = {x: _reduce_packed(c, cols) for x, c in count.items()}
            bound = RANK_PRIME - 1
        bound *= widest
        get = count.__getitem__
        if weights is None:
            count = {y: sum(map(get, down[y])) for y in layer}
        else:
            count = {y: sum(map(mul, weights[y], map(get, down[y]))) for y in layer}
    rows = [count[y] for y in order[n - i]]
    if bound >= RANK_PRIME:
        rows = [_reduce_packed(row, cols) for row in rows]
    return rows


def _cover_weights(P):
    """One weight in 1..2^WEIGHT_BITS per cover, as weights[y] aligned with
    P.down[y], drawn in element order from random.Random(WEIGHT_SEED).
    Cached on the poset."""
    weights = vars(P).get("_cover_weights")
    if weights is None:
        bits = random.Random(WEIGHT_SEED).getrandbits
        weights = P._cover_weights = [[bits(WEIGHT_BITS) + 1 for _ in xs] for xs in P.down]
    return weights


def _bijective_powers(P, power_rank):
    """Whether every power U^{n-2i}: P_i -> P_{n-i} of an order-raising map
    U, for i below the middle, is bijective on a rank-symmetric P:
    power_rank(P, i) gives the rank of U^{n-2i}.  An asymmetric P gives
    False before any rank is taken."""
    vec = P.rank_vector
    return vec == vec[::-1] and all(power_rank(P, i) == vec[i] for i in range(len(vec) // 2))


def weighted_lefschetz_certificate(P):
    """Whether the seeded weighted order-raising map (_cover_weights) has
    full-rank powers U^{n-2i} from rank i to rank n-i for every i below the
    middle, on a rank-symmetric P.  True proves that P is Peck (see
    peck_report); False proves nothing, as another draw might succeed.

    The ranks are taken mod p on the packed weighted chain counts
    (_chain_counts_mod_p), which needs no kernel and no integer power: a
    full rank mod p is the full rank over the rationals.  A rank of
    _MAX_TERMS or more elements is beyond the packing (see RANK_PRIME), and
    gives False before the symmetry is read or a weight is drawn.
    """
    return max(P.rank_vector, default=0) < _MAX_TERMS and _bijective_powers(
        P, lambda P, i: len(_echelon_mod_p(_chain_counts_mod_p(P, i, _cover_weights(P)), P.rank_vector[i]))
    )


def rank_profile(P):
    """(rank-symmetric, rank-unimodal) flags of the rank vector."""
    vec = P.rank_vector
    return vec == vec[::-1], is_unimodal_sequence(vec)


def is_unimodal_sequence(seq):
    falling = False
    for a, b in zip(seq, seq[1:]):
        if b < a:
            falling = True
        elif b > a and falling:
            return False
    return True


def is_unitary_peck(P):
    """Whether every restricted power of the all-ones Lefschetz map from rank
    i to rank n-i (for i below the middle) is an isomorphism, by the
    certified ranks of lefschetz_power_rank."""
    return _bijective_powers(P, lefschetz_power_rank)


# -- Greene-Kleitman d_k -------------------------------------------------------


class _MinCostFlow:
    def __init__(self, n):
        self.n = n
        self.adj = [[] for _ in range(n)]

    def add(self, u, v, cap, cost):
        self.adj[u].append([v, cap, cost, len(self.adj[v])])
        self.adj[v].append([u, 0, -cost, len(self.adj[u]) - 1])

    def augment_unit(self, s, t):
        """Send one unit along a cheapest s-t path; returns its cost or None."""
        dist = [None] * self.n
        dist[s] = 0
        prev = [None] * self.n
        inq = [False] * self.n
        queue = deque([s])
        inq[s] = True
        while queue:
            u = queue.popleft()
            inq[u] = False
            du = dist[u]
            for ei, (v, cap, cost, _) in enumerate(self.adj[u]):
                if cap > 0 and (dist[v] is None or du + cost < dist[v]):
                    dist[v] = du + cost
                    prev[v] = (u, ei)
                    if not inq[v]:
                        queue.append(v)
                        inq[v] = True
        if dist[t] is None:
            return None
        v = t
        while v != s:
            u, ei = prev[v]
            edge = self.adj[u][ei]
            edge[1] -= 1
            self.adj[v][edge[3]][1] += 1
            v = u
        return dist[t]


def _chain_gains(P):
    """Marginal chain sizes g_1 >= g_2 >= ... of one successive-shortest-path
    flow on the cover network of P, keeping only gains above 1.  Cached on
    the poset.

    Each element v splits into in_v/out_v, with arcs s -> in_v and
    out_v -> t of capacity 1, a counting arc in_v -> out_v of capacity 1 and
    cost -1, a parallel bypass arc in_v -> out_v of capacity n and cost 0, and
    an arc out_x -> in_y of capacity n and cost 0 for every cover (x, y).

    Why this is exact:
    - a flow of value j splits into j paths; the counted elements on those
      paths form disjoint chains, and bypass arcs let a chain pass through an
      element without counting it;
    - cover arcs carry capacity n because several chains may pass the same
      uncounted element;
    - apart from in_v -> out_v, rank rises along every arc between elements,
      so the network is a DAG and the first Bellman-Ford search meets no
      negative cycle;
    - successive shortest paths give non-increasing gains, so the best total
      overflow of j disjoint chains over k, maximised over j,
      max_j (g_1 + ... + g_j - jk), equals sum((g - k)+).  A gain of at most
      1 adds nothing to that sum for any k >= 1, so augmentation stops there.
    """
    gains = vars(P).get("_chain_gains")
    if gains is None:
        n = P.n
        net = _MinCostFlow(2 * n + 2)
        s, t = 2 * n, 2 * n + 1
        for v in range(n):
            net.add(s, 2 * v, 1, 0)
            net.add(2 * v, 2 * v + 1, 1, -1)
            net.add(2 * v, 2 * v + 1, n, 0)
            net.add(2 * v + 1, t, 1, 0)
        for x, y in P.covers:
            net.add(2 * x + 1, 2 * y, n, 0)
        gains = []
        while (cost := net.augment_unit(s, t)) is not None and cost < -1:
            gains.append(-cost)
        P._chain_gains = gains
    return gains


def max_k_antichain_union(P, k, oracle_threshold=DEFAULT_ORACLE_THRESHOLD):
    """Largest union of k antichains, exactly.

    By Greene-Kleitman duality this is |P| minus the best total chain overflow
    sum((|C| - k)+) over chain partitions.  That is sum((g - k)+) over the
    chain gains g of one min-cost flow on the split-element cover network,
    whose bypass arcs let a chain pass elements it does not count (see
    _chain_gains); every k reads the same gains, cached on P.  Results are
    cross-checked against the exhaustive layer-peeling search whenever
    |P| <= oracle_threshold.
    """
    if k < 1:
        raise InvalidParams("need k >= 1")
    d = P.n - sum(g - k for g in _chain_gains(P) if g > k)
    if P.n <= oracle_threshold:
        expected = brute_force_k_antichain_union(P, k)
        if d != expected:
            raise InternalInconsistency(
                f"flow d_{k} = {d} but exhaustive search says {expected}"
            )
    return d


def _antichain_union_table(P):
    """table[k] = max size of a union of k antichains, by exhaustive search.

    Every subset is peeled into explicit antichain layers (repeatedly stripping
    its minimal elements); a subset is a union of k antichains iff it peels in
    at most k layers.  Cached on the poset.  Exponential: callers keep |P|
    small.
    """
    cached = getattr(P, "_antichain_union_table", None)
    if cached is not None:
        return cached
    n = P.n
    below = [0] * n
    for u in range(n):
        rest = P._reach[u] & ~(1 << u)
        v = 0
        while rest >> v:
            if (rest >> v) & 1:
                below[v] |= 1 << u
            v += 1
    best = [0] * (n + 1)
    for sub in range(1 << n):
        t = sub
        layers = 0
        while t:
            minimal = 0
            bits = t
            v = 0
            while bits:
                if bits & 1 and (below[v] & t) == 0:
                    minimal |= 1 << v
                bits >>= 1
                v += 1
            t &= ~minimal
            layers += 1
        size = sub.bit_count()
        if size > best[layers]:
            best[layers] = size
    for h in range(1, n + 1):
        best[h] = max(best[h], best[h - 1])
    P._antichain_union_table = best
    return best


def brute_force_k_antichain_union(P, k):
    """Independent exhaustive oracle for max_k_antichain_union (small posets)."""
    table = _antichain_union_table(P)
    return table[min(k, P.n)]


def is_strongly_sperner(P):
    """True iff for every k the best k-antichain union is just the k largest ranks."""
    sizes = sorted(P.rank_vector, reverse=True)
    total = 0
    for k in range(1, len(sizes) + 1):
        total += sizes[k - 1]
        if max_k_antichain_union(P, k) != total:
            return False
    return True


def peck_report(P):
    """The Peck fields of P; peck = symmetric, unimodal and strongly Sperner.

    Theorem (Stanley 1980; Proctor-Saks-Sturtevant 1980): a rank-symmetric
    graded poset of rank n is Peck if some order-raising map U, sending each
    element to a linear combination of its upper covers, has bijective
    powers U^{n-2i}: P_i -> P_{n-i} for every i < n/2.  Peck implies
    strongly Sperner.  Such a U forces the rank vector to be symmetric and
    unimodal, so the certificates are tried only on such P.

    The routes, in order:
    - the rank profile: symmetric and unimodal, read off the rank vector;
    - unitary Lefschetz: U with every cover weight 1 (is_unitary_peck, its
      ranks certified from both sides);
    - seeded weighted Lefschetz: U with the cover weights of _cover_weights
      (weighted_lefschetz_certificate);
    - the Greene-Kleitman flow (is_strongly_sperner), when both fail.

    A yes from either certificate is exact: the entries of U^{n-2i} are
    integers, and a full rank mod p means some maximal minor is nonzero mod
    p, hence a nonzero integer, so the power has full rank over the
    rationals.  The weights are fixed by WEIGHT_SEED, so the certificate can
    be replayed.  A failed certificate is never a no: the flow decides, so
    no verdict rests on the draw.
    """
    symmetric, unimodal = rank_profile(P)
    unitary = is_unitary_peck(P)
    sperner = (
        unitary
        or (symmetric and unimodal and weighted_lefschetz_certificate(P))
        or is_strongly_sperner(P)
    )
    return {
        "symmetric": symmetric,
        "unimodal": unimodal,
        "unitary_peck": unitary,
        "strongly_sperner": sperner,
        "peck": symmetric and unimodal and sperner,
    }


def is_peck(P):
    """Rank-symmetric, rank-unimodal, and strongly Sperner (see peck_report)."""
    return peck_report(P)["peck"]


# -- symmetric chain decompositions ---------------------------------------------


@dataclass(frozen=True)
class ChainDecomposition:
    """Partition of a poset into saturated chains symmetric about the middle:
    a chain starting at rank i ends at rank max_rank - i."""

    host: GradedPoset
    chains: tuple

    def __post_init__(self):
        object.__setattr__(self, "chains", tuple(tuple(c) for c in self.chains))
        flat = sorted(x for c in self.chains for x in c)
        if flat != list(range(self.host.n)):
            raise InvalidChainDecomposition("chains do not partition the elements")
        covers = self.host.cover_set
        top = self.host.max_rank
        for c in self.chains:
            if not c:
                raise InvalidChainDecomposition("empty chain")
            for a, b in zip(c, c[1:]):
                if (a, b) not in covers:
                    raise InvalidChainDecomposition(f"({a}, {b}) is not a cover")
            if self.host.ranks[c[0]] + self.host.ranks[c[-1]] != top:
                raise InvalidChainDecomposition(
                    f"chain at ranks {self.host.ranks[c[0]]}..{self.host.ranks[c[-1]]}"
                    f" is not symmetric in rank {top}"
                )


def scd_boolean(n):
    """Bracketing symmetric chain decomposition of B_n.

    Read a subset as brackets (absent point = open, present = close) and match
    them; the matched pattern is constant along a chain, and the chain walks
    the unmatched opens left to right.
    """
    P = boolean_algebra(n)
    groups = {}
    for x in range(1 << n):
        bottom = x
        opens = 0
        for i in range(n):
            if not (x >> i) & 1:
                opens += 1
            elif opens > 0:
                opens -= 1
            else:
                bottom &= ~(1 << i)
        groups.setdefault(bottom, []).append(x)
    chains = [
        tuple(sorted(groups[b], key=lambda v: v.bit_count())) for b in sorted(groups)
    ]
    return ChainDecomposition(P, tuple(chains))


def scd_transport(D, f):
    """Push a symmetric chain decomposition through a bijective morphism.

    f starts at D's host and, as a PosetMorphism, sends covers to covers and
    keeps ranks, so each image chain is saturated and symmetric; being
    bijective, f makes the images partition the target.  ChainDecomposition
    checks all of this again.
    """
    if not f.is_bijective():
        raise InvalidParams("transport needs a bijective morphism")
    if D.host.ranks != f.source.ranks or D.host.covers != f.source.covers:
        raise InvalidParams("decomposition host differs from morphism source")
    return ChainDecomposition(f.target, tuple(tuple(map(f, c)) for c in D.chains))


def scd_h_boolean(hb):
    """SCD of H(B_n), given as hb = h_poset(boolean_algebra(n)), assembled from
    per-component copies of the B_{n-1} SCD pulled back through the explicit
    component decomposition."""
    witness = h_bn_decomposition(hb)
    n = hb.source.n.bit_length() - 1
    inverse = witness.inverse().image
    base = scd_boolean(n - 1).chains if n else ()  # H(B_0) is empty
    half = (1 << n) >> 1
    chains = []
    for copy in range(n):
        for c in base:
            chains.append(tuple(inverse[copy * half + x] for x in c))
    return ChainDecomposition(witness.source, tuple(chains))
