"""Partitions inside an l x m box, the distinct-part-size statistic, the
weighted counts p_k(l, m, r), and the Young-diagram representatives of orbits
of the row-wise wreath action on B_{l*m}.

The grid convention: point j of {0..lm-1} sits at row j // m, column j % m,
so the m-point blocks of the wreath product are the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .actions import is_boolean_poset
from .errors import InternalInconsistency, InvalidParams, TooLarge, WrongGroup
from .peck import is_unimodal_sequence
from .perms import symmetric, wreath

PAK_CAP = 36  # pure counting; generous box ceiling


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        for a, b in zip(self.parts, self.parts[1:]):
            if b > a:
                raise InvalidParams(f"parts not weakly decreasing: {self.parts}")
        if self.parts and self.parts[-1] < 1:
            raise InvalidParams(f"parts must be positive: {self.parts}")

    @property
    def size(self):
        return sum(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def nu(partition):
    """Number of distinct part sizes; equals the number of removable corners."""
    return len(set(partition.parts))


def partitions_in_box(k, l, m):
    """All partitions of k with at most l parts, each at most m, in ascending
    lexicographic order of their part tuples."""
    if k < 0:
        raise InvalidParams("need k >= 0")
    out = []

    def grow(remaining, max_part, slots, acc):
        if remaining == 0:
            out.append(Partition(tuple(acc)))
            return
        if slots == 0:
            return
        for p in range(min(max_part, remaining), 0, -1):
            acc.append(p)
            grow(remaining - p, p, slots - 1, acc)
            acc.pop()

    grow(k, m, l, [])
    out.sort(key=lambda part: part.parts)
    return out


def p_count(k, l, m, r):
    """Sum of C(nu(lambda), r) over partitions of k in the l x m box."""
    if min(k, l, m, r) < 0:
        raise InvalidParams("arguments must be non-negative")
    return sum(comb(nu(lam), r) for lam in partitions_in_box(k, l, m))


def young_representative(A, orbit: int, l: int, m: int):
    """The partition whose bottom-left-justified filling represents orbit
    `orbit` of A, the standard row-wise S_m wr S_l action on B_{l*m}.

    Verified: the orbit of the justified filling coincides with the input
    orbit, which pins the grid convention.
    """
    G = A.group
    if G.degree != l * m or not is_boolean_poset(A.poset):
        raise WrongGroup(f"expected the standard wreath group on B_{l * m}")
    standard = wreath(symmetric(m), symmetric(l))
    # G <= standard with equal orders means G == standard
    if G.order != standard.order or not all(g in standard for g in G.generators):
        raise WrongGroup("group is not the standard row-wise wreath product")
    if not 0 <= orbit < len(A.orbit_reps):
        raise InvalidParams(f"orbit {orbit} out of range")
    rep = A.orbit_reps[orbit]
    row_mask = (1 << m) - 1
    fills = sorted(
        ((rep >> (r * m)) & row_mask).bit_count() for r in range(l)
    )[::-1]
    lam = Partition(tuple(f for f in fills if f > 0))
    justified = 0
    for row, part in enumerate(lam.parts):
        justified |= ((1 << part) - 1) << (row * m)
    if A.orbit_of[justified] != orbit:
        raise InternalInconsistency("justified filling lands in a different orbit")
    return lam


def pak_sequence_check(l, m, r):
    """The sequence p_r(l,m,r), ..., p_{lm}(l,m,r) with symmetry and
    unimodality flags."""
    if min(l, m, r) < 0:
        raise InvalidParams("arguments must be non-negative")
    if l * m > PAK_CAP:
        raise TooLarge(f"box area capped at {PAK_CAP}")
    seq = tuple(p_count(k, l, m, r) for k in range(r, l * m + 1))
    return seq, seq == seq[::-1], is_unimodal_sequence(seq)
