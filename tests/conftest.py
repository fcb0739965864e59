import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import edgeposets as ep

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_graded_poset(rng, max_ranks=4, max_width=4, p_cover=0.5):
    sizes = [rng.randint(1, max_width) for _ in range(rng.randint(1, max_ranks))]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    ranks = [r for r, s in enumerate(sizes) for _ in range(s)]
    covers = []
    for r in range(len(sizes) - 1):
        for a in range(sizes[r]):
            for b in range(sizes[r + 1]):
                if rng.random() < p_cover:
                    covers.append((offsets[r] + a, offsets[r + 1] + b))
    return ep.GradedPoset(ranks, covers)


def shuffle_poset(rng, P):
    """Relabel the elements of P by a random permutation; returns the shuffled
    poset (isomorphic to P by construction)."""
    perm = list(range(P.n))
    rng.shuffle(perm)
    ranks = [0] * P.n
    for i, j in enumerate(perm):
        ranks[j] = P.ranks[i]
    covers = [(perm[x], perm[y]) for x, y in P.covers]
    return ep.GradedPoset(ranks, covers)


def inflate(rng, Q, max_copies=2, p_cover=0.7):
    """Random poset P with a surjective morphism onto Q: each element of Q is
    duplicated, and P-covers sit only over Q-covers."""
    copies = [rng.randint(1, max_copies) for _ in range(Q.n)]
    offsets = [0]
    for c in copies:
        offsets.append(offsets[-1] + c)
    ranks = []
    image = []
    for q in range(Q.n):
        for _ in range(copies[q]):
            ranks.append(Q.ranks[q])
            image.append(q)
    covers = []
    for a, b in Q.covers:
        pairs = [
            (offsets[a] + i, offsets[b] + j)
            for i in range(copies[a])
            for j in range(copies[b])
        ]
        chosen = [p for p in pairs if rng.random() < p_cover] or [pairs[0]]
        covers.extend(chosen)
    P = ep.GradedPoset(ranks, covers)
    return P, ep.PosetMorphism(P, Q, image)


def quotient_edge_poset(G):
    """E(B_n/G) for a group G of degree n."""
    return ep.q_map(ep.induced_bn_action(G)).quotient_edges.poset


@st.composite
def graded_posets(draw, max_ranks=4, max_width=4):
    sizes = draw(st.lists(st.integers(1, max_width), min_size=1, max_size=max_ranks))
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    ranks = [r for r, s in enumerate(sizes) for _ in range(s)]
    covers = []
    for r in range(len(sizes) - 1):
        for a in range(sizes[r]):
            for b in range(sizes[r + 1]):
                if draw(st.booleans()):
                    covers.append((offsets[r] + a, offsets[r + 1] + b))
    return ep.GradedPoset(ranks, covers)


@pytest.fixture
def rng():
    return random.Random(0xEDE)
