"""The four benchmark workloads: seeded input generation and the operations
that drive `edgeposets.cli` the way a user runs the matching command.

Inputs are made here, from the seed, without calling `edgeposets`: group
generators are conjugated by a seeded permutation of their points, and the
poset JSON is built from first principles and relabelled by a seeded shuffle.
The program under test only ever reads the generated files.

Each operation returns an "observed" value holding the fields that the
expectations in `expected.json` pin down; fields that legitimately depend on
the seed (generator strings, CCT witnesses, timings) are left out.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

# Fields of a `quotient` record that are invariant under conjugating the group.
QUOTIENT_FIELDS = (
    "order",
    "degree",
    "cct",
    "cct_methods",
    "rank_vector_quotient",
    "rank_vector_edge_quotient",
    "rank_vector_quotient_edge",
    "rank_vector_h_quotient",
    "peck_quotient_edge",
    "q_bijective",
    "q_is_isomorphism",
)


@dataclass(frozen=True)
class Op:
    """One timed operation: `run()` performs it and returns what it observed."""

    name: str
    run: Callable[[], object]


# -- generators, 0-indexed one-line images --------------------------------------


def _rotation(n):
    return [(i + 1) % n for i in range(n)]


def _transpositions(pairs, n):
    images = list(range(n))
    for a, b in pairs:
        images[a], images[b] = b, a
    return images


def _dihedral(n):
    return [_rotation(n), [(-i) % n for i in range(n)]]


def _symmetric(n):
    return [_transpositions([(0, 1)], n), _rotation(n)]


def _hyperoctahedral4():
    # signed permutations of 4 coordinates on the points (0 1)(2 3)(4 5)(6 7)
    return [
        _transpositions([(0, 1)], 8),
        _transpositions([(0, 2), (1, 3)], 8),
        [2, 3, 4, 5, 6, 7, 0, 1],  # cycles the four coordinate pairs
    ]


# name -> (degree n of B_n, generators before conjugation)
FLOW_GROUPS = {
    # The trivial group: E(B_7) itself, the heaviest flow (the op_max_s case).
    "trivial-7": (7, []),
    # C_9: not CCT, so the direct/dual scans stop at a witness.
    "cyclic-9": (9, [_rotation(9)]),
    # D_10: CCT; E(B_10/D_10) is the largest quotient edge poset here.
    "dihedral-10": (10, _dihedral(10)),
    # C_8 and <(1 2)(3 4)> on B_6: quotient edge posets that are Peck but not
    # unitary Peck, so the Greene-Kleitman flow (not Lefschetz) decides them.
    "cyclic-8": (8, [_rotation(8)]),
    "double-transposition-6": (6, [_transpositions([(0, 1), (2, 3)], 6)]),
}

BIG_GROUPS = {
    # Large groups, tiny quotients (<= 12 elements): the time goes to group
    # closure, element maps, CCT stabilizer scans and minimal generators, while
    # the flow is bypassed.  S_8 sets peak memory (40320 maps of length 256).
    "symmetric-8": (8, _symmetric(8)),
    "hyperoctahedral-4": (8, _hyperoctahedral4()),
    "symmetric-7": (7, _symmetric(7)),
}


def conjugate(images, sigma):
    """sigma g sigma^-1 on one-line images: sigma(i) -> sigma(g(i))."""
    out = [0] * len(images)
    for i, j in enumerate(images):
        out[sigma[i]] = sigma[j]
    return out


def cycle_notation(images):
    """1-indexed cycle notation, fixed points omitted; "()" for the identity."""
    seen = set()
    cycles = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cyc = []
        i = start
        while i not in seen:
            seen.add(i)
            cyc.append(str(i + 1))
            i = images[i]
        cycles.append("(" + " ".join(cyc) + ")")
    return "".join(cycles) or "()"


def write_generator_file(path, n, gens, rng):
    sigma = list(range(n))
    rng.shuffle(sigma)
    with open(path, "w") as fh:
        fh.write(f"# degree {n}, conjugated by a seeded point permutation\n")
        for g in gens:
            fh.write(cycle_notation(conjugate(g, sigma)) + "\n")


# -- E(B_n/G) for G generated by disjoint transpositions, built independently ---


def quotient_edge_poset_json(n, swaps, rng):
    """E(B_n/G) as poset JSON, G = <product of the transpositions in swaps>.

    B_n is encoded as bit masks; an orbit is {x, g x}.  Elements of the edge
    poset are the covers (a, b) of B_n/G, ranked by a, and (a, b) is covered
    by (a', b') when a' covers a and b' covers b.  Elements are relabelled by
    a seeded shuffle.
    """

    def act(x):
        for a, b in swaps:
            if ((x >> a) ^ (x >> b)) & 1:
                x ^= (1 << a) | (1 << b)
        return x

    reps = sorted({min(x, act(x)) for x in range(1 << n)})
    orbit = {}
    for i, r in enumerate(reps):
        orbit[r] = orbit[act(r)] = i
    qcovers = sorted(
        {
            (orbit[x], orbit[x | 1 << i])
            for x in range(1 << n)
            for i in range(n)
            if not (x >> i) & 1
        }
    )
    up = [[] for _ in reps]
    for a, b in qcovers:
        up[a].append(b)
    index = {c: i for i, c in enumerate(qcovers)}
    covers = [
        (index[(a, b)], index[(a2, b2)])
        for a, b in qcovers
        for a2 in up[a]
        for b2 in up[b]
        if (a2, b2) in index
    ]
    label = list(range(len(qcovers)))
    rng.shuffle(label)
    ranks = [0] * len(qcovers)
    for i, (a, _) in enumerate(qcovers):
        ranks[label[i]] = bin(reps[a]).count("1")
    return {"ranks": ranks, "covers": sorted([label[i], label[j]] for i, j in covers)}


# -- operations ------------------------------------------------------------------


def _cli(argv):
    from edgeposets import cli

    return cli.main(argv)


def _sweep_op(workdir):
    out = os.path.join(workdir, "sweep.jsonl")

    def run():
        code = _cli(["sweep", "--n", "5", "--out", out])
        lines = []
        with open(out) as fh:
            for line in fh:
                record = json.loads(line)
                del record["seconds"]
                lines.append(json.dumps(record))
        return {"exit": code, "jsonl": lines}

    return Op("sweep", run)


def _quotient_op(name, gens_path, n, workdir):
    out = os.path.join(workdir, name + ".json")

    def run():
        code = _cli(["quotient", "--gens", gens_path, "--n", str(n), "--out", out])
        with open(out) as fh:
            record = json.load(fh)
        return {"exit": code, **{k: record[k] for k in QUOTIENT_FIELDS}}

    return Op(name, run)


def _check_op(name, source_args, workdir):
    out = os.path.join(workdir, name + ".json")

    def run():
        code = _cli(["check", *source_args, "--checks=ranks,unitary-peck", "--out", out])
        with open(out) as fh:
            report = json.load(fh)
        return {"exit": code, "elements": report["elements"], "checks": report["checks"]}

    return Op(name, run)


def _quotient_ops(groups, rng, workdir):
    ops = []
    for name, (n, gens) in groups.items():
        path = os.path.join(workdir, name + ".gens")
        write_generator_file(path, n, gens, rng)
        ops.append(_quotient_op(name, path, n, workdir))
    return ops


def build(workload, seed, workdir):
    """Generate the inputs of `workload` from `seed` into `workdir` and return
    its operations in the order they run."""
    rng = random.Random(seed)
    if workload == "sweep-n5":
        # The paper's headline run, dominated by subgroup enumeration.  It is
        # exhaustive, so the seed changes nothing.
        return [_sweep_op(workdir)]
    if workload == "quotient-flow":
        return _quotient_ops(FLOW_GROUPS, rng, workdir)
    if workload == "quotient-biggroup":
        return _quotient_ops(BIG_GROUPS, rng, workdir)
    if workload == "check-lefschetz":
        # A unitary-Peck "yes" and a larger "no" in one workload, so a rank
        # path that speeds up one verdict and slows the other shows in op_max_s.
        path = os.path.join(workdir, "eb9.json")
        with open(path, "w") as fh:
            json.dump(quotient_edge_poset_json(9, [(1, 2), (3, 4), (5, 6), (7, 8)], rng), fh)
        return [
            _check_op("bn8-edge", ["bn:8", "--edge"], workdir),
            _check_op("eb9-quotient-edge", [path], workdir),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep-n5", "quotient-flow", "quotient-biggroup", "check-lefschetz")
