"""Command-line surface: build and inspect posets, quotient boolean algebras
by group actions, sweep subgroup conjugacy classes for Peck failures of the
quotient edge poset, and print box-partition statistics.

Exit codes: 0 all requested properties hold, 1 some property fails, 2 bad
input, 3 internal inconsistency (a proved identity failed, or any other
unexpected exception, i.e. a bug).
Every flag can also be set through an environment variable with prefix EPL_
(e.g. EPL_FORMAT, EPL_JOBS); integer values are parsed like the flag itself,
so a bad one exits 2 with a usage message.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

from . import catalog
from .actions import (
    CCT_METHODS,
    action_on_edges,
    induced_bn_action,
    is_cct,
    q_map,
    quotient,
)
from .edges import edge_poset, h_poset, h_to_e_bijection
from .errors import EdgePosetsError, InternalInconsistency, InvalidInput
from .peck import (
    DEFAULT_ORACLE_THRESHOLD,
    is_peck,
    is_strongly_sperner,
    is_unitary_peck,
    lefschetz_power_rank,
    max_k_antichain_union,
    rank_profile,
    scd_boolean,
    scd_h_boolean,
    scd_transport,
)
from .perms import (
    DEFAULT_GROUP_CAP,
    SWEEP_MAX_N,
    PermGroup,
    Permutation,
    named_group,
    parse_generator_lines,
    subgroup_sweep,
    tree_from_children,
)
from .partitions import pak_sequence_check
from .poset import (
    BOOLEAN_CAP,
    boolean_algebra,
    is_self_dual,
    mask_to_points,
    poset_from_json,
    poset_to_dot,
)

ENV_PREFIX = "EPL_"
CHECK_NAMES = ("ranks", "peck", "unitary-peck", "sperner", "self-dual", "scd")


def _env(name):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))


def _env_flag(name):
    val = _env(name)
    return val is not None and val.lower() not in ("", "0", "false", "no")


# -- sources ----------------------------------------------------------------


def load_poset_source(source):
    """Resolve a poset source: bn:N, fig1, fig2, tree:FILE, or a JSON file."""
    if source.startswith("bn:"):
        try:
            return boolean_algebra(int(source[3:]))
        except ValueError as exc:
            raise InvalidInput(f"bad boolean size in {source!r}") from exc
    if source in catalog.NAMED_POSETS:
        return catalog.named_poset(source)
    if source.startswith("tree:"):
        return load_tree(source[5:]).poset
    return poset_from_json(_load_json(source, "poset source"))


def load_tree(path):
    return tree_from_children(_load_json(path, "tree file"))


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {what} {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"bad JSON in {path!r}: {exc}") from exc
    except RecursionError as exc:
        # the json decoder recurses once per nesting level
        raise InvalidInput(f"JSON in {path!r} is nested too deeply") from exc


def load_group(spec=None, gens_path=None, n=None, cap=DEFAULT_GROUP_CAP):
    """Group from FAMILY:PARAMS or a generator file, padded to degree n."""
    if (spec is None) == (gens_path is None):
        raise InvalidInput("provide exactly one of --group and --gens")
    if n is not None and n > BOOLEAN_CAP:
        # checked before padding allocates n points
        raise InvalidInput(f"--n {n} above the boolean algebra cap {BOOLEAN_CAP}")
    if spec is not None:
        if spec == "trivial":
            if n is None:
                raise InvalidInput("trivial group needs --n")
            return named_group("trivial", n)
        family, _, params = spec.partition(":")
        if not params:
            raise InvalidInput(f"group spec {spec!r} needs FAMILY:PARAMS")
        if family == "elementary-abelian-2":
            raise InvalidInput("pass elementary abelian 2-groups via --gens")
        try:
            k = int(params)
        except ValueError as exc:
            raise InvalidInput(f"bad group parameter in {spec!r}") from exc
        if k > BOOLEAN_CAP:
            # every family acts on at least k points; checked before building
            raise InvalidInput(f"group parameter {k} above the boolean algebra cap {BOOLEAN_CAP}")
        G = named_group(family, k, cap)
        if n is not None and n != G.degree:
            if n < G.degree:
                raise InvalidInput(f"--n {n} below group degree {G.degree}")
            G = _pad_group(G, n, cap)
        return G
    try:
        with open(gens_path) as fh:
            perms, degree = parse_generator_lines(fh, degree=n)
    except OSError as exc:
        raise InvalidInput(f"cannot read generator file {gens_path!r}: {exc}") from exc
    if n is not None and n < degree:
        raise InvalidInput(f"--n {n} below group degree {degree}")
    return PermGroup(degree, perms, cap)


def _pad_group(G, n, cap=DEFAULT_GROUP_CAP):
    gens = [Permutation(list(g.images) + list(range(G.degree, n))) for g in G.generators]
    return PermGroup(n, gens, cap)


# -- check ------------------------------------------------------------------


def _load_view(source, view):
    """The poset a check inspects: the source itself, or its E or H poset."""
    base = load_poset_source(source)
    if view == "edge":
        return edge_poset(base).poset
    if view == "h":
        return h_poset(base).poset
    return base


def run_checks(source, view, checks, oracle_threshold):
    """Run the requested checks on a poset source; returns (report, all_pass)."""
    P = _load_view(source, view)
    report = {
        "source": source,
        "view": view,
        "elements": P.n,
        "rank_vector": list(P.rank_vector),
        "checks": {},
    }
    ok = True
    for name in checks:
        if name == "ranks":
            sym, uni = rank_profile(P)
            entry = {"rank_vector": list(P.rank_vector), "symmetric": sym, "unimodal": uni}
        elif name == "peck":
            entry = {"passed": is_peck(P, oracle_threshold)}
        elif name == "unitary-peck":
            n = P.max_rank
            ranks = {str(i): lefschetz_power_rank(P, i) for i in range((n + 1) // 2)}
            entry = {"passed": is_unitary_peck(P), "lefschetz_ranks": ranks}
        elif name == "sperner":
            table = {
                str(k): max_k_antichain_union(P, k, oracle_threshold)
                for k in range(1, len(P.rank_vector) + 1)
            }
            entry = {"passed": is_strongly_sperner(P, oracle_threshold), "d_table": table}
        elif name == "self-dual":
            entry = {"passed": is_self_dual(P)}
        elif name == "scd":
            entry = {"passed": True, "chains": _scd_chain_count(source, view)}
        else:
            raise InvalidInput(f"unknown check {name!r}; pick from {CHECK_NAMES}")
        report["checks"][name] = entry
        if entry.get("passed") is False:
            ok = False
    return report, ok


def _scd_chain_count(source, view):
    if not source.startswith("bn:"):
        raise InvalidInput("scd check supports bn:N sources only")
    n = int(source[3:])
    if view == "base":
        return len(scd_boolean(n).chains)
    decomposition = scd_h_boolean(n)
    if view == "h":
        return len(decomposition.chains)
    transported = scd_transport(decomposition, h_to_e_bijection(boolean_algebra(n)))
    return len(transported.chains)


# -- action records -----------------------------------------------------------


@dataclass
class SweepRecord:
    """One action on B_n, fully analyzed: CCT verdicts by all four methods,
    rank vectors of the three derived posets, Peck data of E(B_n/G), and the
    comparison-map flags."""

    group: str
    order: int
    degree: int
    cct: bool
    cct_witness: dict | None
    cct_methods: dict
    rank_vector_quotient: list
    rank_vector_edge_quotient: list
    rank_vector_quotient_edge: list
    peck_quotient_edge: dict
    q_bijective: bool
    q_is_isomorphism: bool
    seconds: float
    rank_vector_h_quotient: list | None = None

    def to_dict(self):
        out = asdict(self)
        if out["rank_vector_h_quotient"] is None:
            del out["rank_vector_h_quotient"]
        return out


def action_record(G, include_h=False, oracle_threshold=DEFAULT_ORACLE_THRESHOLD):
    """Analyze the induced action of G on B_{deg G} and bundle the results."""
    start = time.perf_counter()
    A = induced_bn_action(G)
    verdicts = {}
    witness = None
    for method in CCT_METHODS:
        res = is_cct(A, method)
        verdicts[method] = res.ok
        if method == "direct" and res.witness is not None:
            x, y, z = res.witness
            witness = {
                "x": mask_to_points(x),
                "y": mask_to_points(y),
                "z": mask_to_points(z),
            }
    if len(set(verdicts.values())) != 1:
        raise InternalInconsistency(f"CCT methods disagree: {verdicts}")
    qm = q_map(A)
    quotient_edge = qm.quotient_edges.poset
    sym, uni = rank_profile(quotient_edge)
    peck_fields = {
        "symmetric": sym,
        "unimodal": uni,
        "unitary_peck": is_unitary_peck(quotient_edge),
        "strongly_sperner": is_strongly_sperner(quotient_edge, oracle_threshold),
        "peck": is_peck(quotient_edge, oracle_threshold),
    }
    h_rv = None
    if include_h:
        h_act, _ = action_on_edges(A, "H")
        h_rv = list(quotient(h_act).poset.rank_vector)
    # q's base quotient refers back to A; dropping A's cached q breaks that
    # cycle, so both are freed on return, not at the next full collection
    del A.q
    return SweepRecord(
        group=G.generator_string(),
        order=G.order,
        degree=G.degree,
        cct=verdicts["direct"],
        cct_witness=witness,
        cct_methods=verdicts,
        rank_vector_quotient=list(qm.base_quotient.poset.rank_vector),
        rank_vector_edge_quotient=list(qm.edge_quotient.poset.rank_vector),
        rank_vector_quotient_edge=list(quotient_edge.rank_vector),
        peck_quotient_edge=peck_fields,
        q_bijective=qm.bijective,
        q_is_isomorphism=qm.isomorphism,
        seconds=round(time.perf_counter() - start, 6),
        rank_vector_h_quotient=h_rv,
    )


def _sweep_worker(args):
    degree, images, cap, oracle_threshold = args
    G = PermGroup(degree, [Permutation(im) for im in images], cap)
    return action_record(G, oracle_threshold=oracle_threshold)


def sweep_records(
    n,
    jobs=1,
    group_cap=DEFAULT_GROUP_CAP,
    oracle_threshold=DEFAULT_ORACLE_THRESHOLD,
    groups=None,
):
    """One record per subgroup conjugacy class of S_n (or per supplied group),
    in deterministic (order, generator string) order."""
    if groups is None:
        groups = subgroup_sweep(n)
    if jobs > 1:
        tasks = [
            (G.degree, [g.images for g in G.generators], group_cap, oracle_threshold)
            for G in groups
        ]
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_sweep_worker, tasks))
    else:
        records = [action_record(G, oracle_threshold=oracle_threshold) for G in groups]
    records.sort(key=lambda r: (r.order, r.group))
    for rec in records:
        if rec.cct and not rec.peck_quotient_edge["peck"]:
            raise InternalInconsistency(
                f"CCT action {rec.group} with non-Peck quotient edge poset"
            )
    return records


# -- emitters -------------------------------------------------------------------


def _flatten(prefix, value, row):
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else key, sub, row)
    else:
        row[prefix] = json.dumps(value) if isinstance(value, (list, dict)) else value


def records_to_csv(dicts):
    rows = []
    for d in dicts:
        row = {}
        _flatten("", d, row)
        rows.append(row)
    fields = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- argument parsing --------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(prog="edgeposets", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run property checks on a poset")
    p.add_argument("source", help="bn:N | fig1 | fig2 | tree:FILE | JSON file")
    p.add_argument("--edge", action="store_true", default=_env_flag("EDGE"),
                   help="check the edge poset of the source")
    p.add_argument("--hpos", action="store_true", default=_env_flag("HPOS"),
                   help="check the relaxed edge poset of the source")
    p.add_argument("--checks", default=_env("CHECKS") or "ranks",
                   help="comma list: " + ",".join(CHECK_NAMES))
    p.add_argument("--format", choices=("json", "csv", "dot"),
                   default=_env("FORMAT") or "json")
    p.add_argument("--out", default=_env("OUT"))
    p.add_argument("--oracle-threshold", type=int,
                   default=_env("ORACLE_THRESHOLD") or DEFAULT_ORACLE_THRESHOLD)

    p = sub.add_parser("quotient", help="analyze the induced action of a group on B_n")
    p.add_argument("--group", default=_env("GROUP"),
                   help="FAMILY:PARAMS, e.g. dihedral:9, cyclic:6, symmetric:4, "
                        "hyperoctahedral:3, trivial")
    p.add_argument("--gens", default=_env("GENS"), help="generator file, one cycle-notation permutation per line")
    p.add_argument("--n", type=int, default=_env("N") or None)
    p.add_argument("--format", choices=("json", "csv"), default=_env("FORMAT") or "json")
    p.add_argument("--out", default=_env("OUT"))
    p.add_argument("--group-cap", type=int, default=_env("GROUP_CAP") or DEFAULT_GROUP_CAP)
    p.add_argument("--oracle-threshold", type=int, default=_env("ORACLE_THRESHOLD") or DEFAULT_ORACLE_THRESHOLD)

    p = sub.add_parser("sweep", help="sweep subgroup conjugacy classes of S_n")
    p.add_argument("--n", type=int, required=not _env("N"), default=_env("N") or None)
    p.add_argument("--gens", nargs="*", default=None,
                   help="generator files; skips the exhaustive subgroup enumeration")
    p.add_argument("--jobs", type=int, default=_env("JOBS") or 1)
    p.add_argument("--format", choices=("json", "csv"), default=_env("FORMAT") or "json")
    p.add_argument("--out", default=_env("OUT"))
    p.add_argument("--group-cap", type=int, default=_env("GROUP_CAP") or DEFAULT_GROUP_CAP)
    p.add_argument("--oracle-threshold", type=int, default=_env("ORACLE_THRESHOLD") or DEFAULT_ORACLE_THRESHOLD)

    p = sub.add_parser("pak", help="box-partition count sequence with verdicts")
    p.add_argument("--l", type=int, required=True, help="rows of the box")
    p.add_argument("--m", type=int, required=True, help="columns of the box")
    p.add_argument("--r", type=int, default=1, help="corner-count binomial order")
    p.add_argument("--out", default=_env("OUT"))
    return top


# -- commands ------------------------------------------------------------------


def cmd_check(args):
    if args.edge and args.hpos:
        raise InvalidInput("--edge and --hpos are mutually exclusive")
    view = "edge" if args.edge else "h" if args.hpos else "base"
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in checks:
        if c not in CHECK_NAMES:
            raise InvalidInput(f"unknown check {c!r}; pick from {CHECK_NAMES}")
    report, ok = run_checks(args.source, view, checks, args.oracle_threshold)
    if args.format == "dot":
        _emit(poset_to_dot(_load_view(args.source, view)), args.out)
    elif args.format == "csv":
        _emit(records_to_csv([report]), args.out)
    else:
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if ok else 1


def cmd_quotient(args):
    G = load_group(args.group, args.gens, args.n, args.group_cap)
    record = action_record(G, include_h=True, oracle_threshold=args.oracle_threshold)
    if args.format == "csv":
        _emit(records_to_csv([record.to_dict()]), args.out)
    else:
        _emit(json.dumps(record.to_dict(), indent=2) + "\n", args.out)
    return 0 if record.peck_quotient_edge["peck"] else 1


def cmd_sweep(args):
    groups = None
    if args.gens:
        groups = []
        for path in args.gens:
            groups.append(load_group(None, path, args.n, args.group_cap))
    elif args.n > SWEEP_MAX_N:
        raise InvalidInput(
            f"exhaustive sweep supports n <= {SWEEP_MAX_N}; pass --gens for larger n"
        )
    records = sweep_records(
        args.n,
        jobs=args.jobs,
        group_cap=args.group_cap,
        oracle_threshold=args.oracle_threshold,
        groups=groups,
    )
    dicts = [r.to_dict() for r in records]
    if args.format == "csv":
        _emit(records_to_csv(dicts), args.out)
    else:
        _emit("".join(json.dumps(d) + "\n" for d in dicts), args.out)
    failures = [r for r in records if not r.peck_quotient_edge["peck"]]
    if failures:
        banner = "=" * 60 + "\nCOUNTEREXAMPLE: E(B_n/G) fails Peck for:\n"
        for r in failures:
            banner += f"  n={r.degree} G={r.group} (order {r.order})\n"
        banner += "=" * 60 + "\n"
        sys.stderr.write(banner)
        return 1
    sys.stderr.write(f"swept {len(records)} classes at n={args.n}: all quotient edge posets Peck\n")
    return 0


def cmd_pak(args):
    seq, symmetric, unimodal = pak_sequence_check(args.l, args.m, args.r)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "p"])
    for offset, value in enumerate(seq):
        writer.writerow([args.r + offset, value])
    writer.writerow(["symmetric", str(symmetric).lower()])
    writer.writerow(["unimodal", str(unimodal).lower()])
    _emit(buf.getvalue(), args.out)
    return 0 if symmetric and unimodal else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "check": cmd_check,
        "quotient": cmd_quotient,
        "sweep": cmd_sweep,
        "pak": cmd_pak,
    }[args.command]
    try:
        return handler(args)
    except InternalInconsistency as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return 3
    except EdgePosetsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        # any other exception is a bug, not a finding: never exit 1 on it
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
