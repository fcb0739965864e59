"""Exact verification of rank symmetry/unimodality, strong Spernerity, Peck
and unitary Peck properties, plus symmetric chain decompositions.

No floating point anywhere.  A Lefschetz power U^{n-2i} of the all-ones
order-raising map is built entry by entry as a count of saturated chains from
rank i to rank n-i, without multiplying cover matrices.  Matrix ranks are
computed modulo a word-sized prime p and certified over the rationals from
both sides: rank_p <= rank_Q always (a nonzero minor mod p is a nonzero
integer minor), and each rank drop is confirmed by integer kernel vectors,
rationally reconstructed from the mod-p kernel and checked with exact integer
arithmetic.  When a certificate cannot be found, fraction-free Bareiss
elimination decides.  The k-antichain numbers d_k come from Greene-Kleitman
duality: one minimum-cost flow on the split-element cover network, where
bypass arcs let chains pass elements they do not count, gives every d_k, and
posets of at most DEFAULT_ORACLE_THRESHOLD (12) elements are cross-checked
against an exhaustive search.

peck_report is the one place that decides Peck.  The certified Lefschetz
ranks of the all-ones order-raising map decide first; the flow runs only when
they do not make P unitary Peck, and is_unitary_peck alone never runs it.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from math import isqrt, lcm

from .edges import h_bn_decomposition
from .errors import InternalInconsistency, InvalidChainDecomposition, InvalidParams
from .poset import GradedPoset, boolean_algebra

DEFAULT_ORACLE_THRESHOLD = 12  # cross-check d_k exhaustively up to this size

# Ranks are taken modulo RANK_PRIME, one matrix row packed into one int with a
# 64-bit slot per column.  Adding (p - f) * T, T a pivot row reduced mod p, to
# a row grows each slot by less than p^2, so a slot stays below p + r * p^2,
# which is under 2^64 while the r pivots so far number fewer than 2^23; the
# back substitution sums fewer than cols such products per slot.
RANK_PRIME = 1048573  # the largest prime below 2^20
_SLOT_BITS = 64
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_MAX_TERMS = 1 << 23
_RECON_BOUND = isqrt(RANK_PRIME // 2)  # 2 * N * D < p: n/d is unique if it exists


class ExactMatrix:
    """Dense integer matrix; all arithmetic exact, no floating point anywhere."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        entries = [list(row) for row in entries]
        rows = len(entries)
        if rows:
            cols = len(entries[0])
            for row in entries:
                if len(row) != cols:
                    raise InvalidParams("ragged matrix")
        else:
            cols = cols or 0
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def rank(self):
        """Exact rank over the rationals, certified from both sides.

        The rank r_p modulo RANK_PRIME is a lower bound: a minor that is
        nonzero mod p is a nonzero integer.  If r_p = min(rows, cols) it is
        the rank.  Otherwise the cols - r_p kernel vectors of the mod-p row
        echelon form, each with a 1 at its own free column and 0 at the
        others (so they are independent), are rationally reconstructed,
        scaled to integers and checked to satisfy M v = 0 exactly; the rank
        is then at most cols - (cols - r_p) = r_p.  If a reconstruction or a
        check fails (as one must when p divides every nonzero minor of the
        largest size, so that r_p < rank), the rank comes from bareiss_rank.
        """
        if max(self.rows, self.cols) >= _MAX_TERMS:
            return self.bareiss_rank()
        pivots = self._echelon_mod_p()
        if len(pivots) == min(self.rows, self.cols):
            return len(pivots)
        for v in self._kernel_mod_p(pivots):
            w = _integer_vector(v)
            if w is None or any(sum(row[j] * x for j, x in w) for row in self.entries):
                return self.bareiss_rank()
        return len(pivots)

    def _echelon_mod_p(self):
        """Row echelon form mod p as [(pivot column c, packed row)], each row
        reduced mod p, scaled to 1 at c, with slot j holding column c + j."""
        p = RANK_PRIME
        rest = [_pack([x % p for x in row]) for row in self.entries]
        pivots = []
        for c in range(self.cols):
            pivot = None
            keep = []
            for row in rest:
                f = (row & _SLOT_MASK) % p
                if f:
                    if pivot is None:
                        pivot = _reduce_packed(row, self.cols - c, pow(f, -1, p))
                        pivots.append((c, pivot))
                        continue
                    row += (p - f) * pivot
                keep.append(row >> _SLOT_BITS)
            rest = keep
            if not rest:
                break
        return pivots

    def _kernel_mod_p(self, pivots):
        """Kernel basis mod p, one vector per non-pivot column: 1 there, 0 at
        the other free columns, and the pivot columns solved by back
        substitution.  All vectors are solved at once: value[j] packs column
        j of every vector, one slot per free column."""
        p, cols = RANK_PRIME, self.cols
        pivot_cols = {c for c, _ in pivots}
        free = [c for c in range(cols) if c not in pivot_cols]
        value = [0] * cols
        for t, c in enumerate(free):
            value[c] = 1 << (_SLOT_BITS * t)
        for c, row in reversed(pivots):
            # the pivot row has a 1 at c: v[c] = -sum over j > c of row[j] v[j]
            tail = _unpack(row, cols - c)[1:]
            acc = sum((p - a) * v for a, v in zip(tail, value[c + 1:]) if a and v)
            value[c] = _reduce_packed(acc, len(free))
        columns = [_unpack(v, len(free)) for v in value]
        return list(zip(*columns))

    def bareiss_rank(self):
        """Exact rank by fraction-free (Bareiss) elimination."""
        m = [row[:] for row in self.entries]
        rows, cols = self.rows, self.cols
        r = 0
        prev = 1
        for c in range(cols):
            piv = next((i for i in range(r, rows) if m[i][c]), None)
            if piv is None:
                continue
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
            for i in range(r + 1, rows):
                mic = m[i][c]
                mrc = m[r][c]
                rowr = m[r]
                rowi = m[i]
                for j in range(c + 1, cols):
                    rowi[j] = (mrc * rowi[j] - mic * rowr[j]) // prev
                rowi[c] = 0
            prev = m[r][c]
            r += 1
            if r == rows:
                break
        return r


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
    """Exact rank of lefschetz_power_matrix(P, i).  Cached on the poset."""
    cache = vars(P).setdefault("_lefschetz_ranks", {})
    if i not in cache:
        cache[i] = lefschetz_power_matrix(P, i).rank()
    return cache[i]


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
    """Whether every restricted power of the Lefschetz map from rank i to rank
    n-i (for i below the middle) is an isomorphism."""
    n = P.max_rank
    vec = P.rank_vector
    for i in range((n + 1) // 2):
        if vec[i] != vec[n - i]:
            return False
        if lefschetz_power_rank(P, i) != vec[i]:
            return False
    return True


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

    Unitary Peck implies Peck, which implies strongly Sperner (Stanley 1980;
    Proctor-Saks-Sturtevant 1980), so the Greene-Kleitman flow runs only when
    the certified Lefschetz ranks say P is not unitary Peck.  Then the flow
    decides: Peck needs only SOME order-raising map with isomorphic powers.
    """
    symmetric, unimodal = rank_profile(P)
    unitary = is_unitary_peck(P)
    sperner = unitary or is_strongly_sperner(P)
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
    inverse = [0] * witness.target.n
    for i, j in enumerate(witness.image):
        inverse[j] = i
    base = scd_boolean(n - 1).chains if n else ()  # H(B_0) is empty
    half = (1 << n) >> 1
    chains = []
    for copy in range(n):
        for c in base:
            chains.append(tuple(inverse[copy * half + x] for x in c))
    return ChainDecomposition(witness.source, tuple(chains))
