"""Command-line surface: build and inspect posets, quotient boolean algebras
by group actions, sweep subgroup conjugacy classes for Peck failures of the
quotient edge poset, and print box-partition statistics.

Exit codes: 0 all requested properties hold, 1 some property fails, 2 bad
input, 3 internal inconsistency (a proved identity failed, or any other
unexpected exception, i.e. a bug).
Some flags can also be set through an environment variable named EPL_ plus
the flag in upper case: --out and --format on every command that has them,
check's --edge, --hpos and --checks, quotient's --group, --gens and --n, and
sweep's --n and --jobs.  Integer values are parsed and --format values
checked like the flag itself, so a bad one exits 2 with a usage message.
sweep's --gens, pak's --l, --m and --r, and check's positional source read no
variable.
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
from itertools import accumulate

from . import catalog
from .actions import (
    CCT_METHODS,
    induced_bn_action,
    is_cct,
    q_map,
)
from .edges import edge_poset, h_poset
from .errors import EdgePosetsError, InternalInconsistency, InvalidInput
from .peck import (
    is_unitary_peck,
    lefschetz_power_rank,
    max_k_antichain_union,
    peck_report,
    rank_profile,
    scd_boolean,
    scd_h_boolean,
    scd_transport,
)
from .perms import (
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
    PosetMorphism,
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


def load_group(spec=None, gens_path=None, n=None):
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
        G = named_group(family, k)
        if n is not None and n != G.degree:
            if n < G.degree:
                raise InvalidInput(f"--n {n} below group degree {G.degree}")
            G = _pad_group(G, n)
        return G
    try:
        with open(gens_path) as fh:
            perms, degree = parse_generator_lines(fh, degree=n)
    except OSError as exc:
        raise InvalidInput(f"cannot read generator file {gens_path!r}: {exc}") from exc
    if n is not None and n < degree:
        raise InvalidInput(f"--n {n} below group degree {degree}")
    return PermGroup(degree, perms)


def _pad_group(G, n):
    gens = [Permutation(list(g.images) + list(range(G.degree, n))) for g in G.generators]
    return PermGroup(n, gens)


# -- check ------------------------------------------------------------------


def run_checks(P, source, view, checks, edges):
    """Run the requested checks on P, the poset loaded from source and view;
    in the edge and h views, edges is the EdgePoset whose poset P is (None in
    the base view).  Returns (report, all_pass)."""
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
            entry = {"passed": peck_report(P)["peck"]}
        elif name == "unitary-peck":
            n = P.max_rank
            ranks = {str(i): lefschetz_power_rank(P, i) for i in range((n + 1) // 2)}
            entry = {"passed": is_unitary_peck(P), "lefschetz_ranks": ranks}
        elif name == "sperner":
            # strongly Sperner: each d_k is the sum of the k largest ranks
            ks = range(1, len(P.rank_vector) + 1)
            table = {str(k): max_k_antichain_union(P, k) for k in ks}
            largest = accumulate(sorted(P.rank_vector, reverse=True))
            entry = {"passed": list(table.values()) == list(largest), "d_table": table}
        elif name == "self-dual":
            entry = {"passed": is_self_dual(P)}
        elif name == "scd":
            entry = {"passed": True, "chains": _scd_chain_count(source, view, edges)}
        else:
            raise InvalidInput(f"unknown check {name!r}; pick from {CHECK_NAMES}")
        report["checks"][name] = entry
        if entry.get("passed") is False:
            ok = False
    return report, ok


def _scd_chain_count(source, view, edges):
    """Chains in an SCD of the poset that source bn:N gives in view (edges, in
    the edge and h views).  The h view's own H(B_N) is decomposed; E(B_N) gets
    it by the identity on elements, a bijective morphism H(B_N) -> E(B_N)
    (edges.h_to_e_bijection).  Each poset is built once."""
    if not source.startswith("bn:"):
        raise InvalidInput("scd check supports bn:N sources only")
    if view == "base":
        return len(scd_boolean(int(source[3:])).chains)
    decomposition = scd_h_boolean(edges if view == "h" else h_poset(edges.source))
    if view == "h":
        return len(decomposition.chains)
    identity = PosetMorphism(decomposition.host, edges.poset, range(edges.poset.n))
    return len(scd_transport(decomposition, identity).chains)


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


def action_record(G):
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
    peck = peck_report(quotient_edge)
    # the paper's theorem: CCT implies E(B_n/G) is Peck
    if verdicts["direct"] and not peck["peck"]:
        raise InternalInconsistency(
            f"CCT action {G.generator_string()} with non-Peck quotient edge poset"
        )
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
        peck_quotient_edge=peck,
        q_bijective=qm.bijective,
        q_is_isomorphism=qm.isomorphism,
        seconds=round(time.perf_counter() - start, 6),
    )


def _sweep_worker(args):
    degree, images = args
    return action_record(PermGroup(degree, [Permutation(im) for im in images]))


def sweep_records(n, jobs=1, groups=None):
    """One record per subgroup conjugacy class of S_n (or per supplied group),
    in deterministic (order, generator string) order.  At most one worker
    process per group is started."""
    if groups is None:
        groups = subgroup_sweep(n)
    workers = min(jobs, len(groups))
    if workers > 1:
        tasks = [(G.degree, [g.images for g in G.generators]) for G in groups]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_worker, tasks))
    else:
        records = [action_record(G) for G in groups]
    records.sort(key=lambda r: (r.order, r.group))
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


def _add_format(p, choices):
    """--format, defaulting to EPL_FORMAT or json.  argparse checks choices
    only on command-line values, but it passes a string default through the
    type, so the type checks the variable's value as well."""

    def choice(value):
        if value not in choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"
            )
        return value

    p.add_argument("--format", choices=choices, type=choice, default=_env("FORMAT") or "json")


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
    _add_format(p, ("json", "csv", "dot"))
    p.add_argument("--out", default=_env("OUT"))

    p = sub.add_parser("quotient", help="analyze the induced action of a group on B_n")
    p.add_argument("--group", default=_env("GROUP"),
                   help="FAMILY:PARAMS, e.g. dihedral:9, cyclic:6, symmetric:4, "
                        "hyperoctahedral:3, trivial")
    p.add_argument("--gens", default=_env("GENS"), help="generator file, one cycle-notation permutation per line")
    p.add_argument("--n", type=int, default=_env("N") or None)
    _add_format(p, ("json", "csv"))
    p.add_argument("--out", default=_env("OUT"))

    p = sub.add_parser("sweep", help="sweep subgroup conjugacy classes of S_n")
    p.add_argument("--n", type=int, required=not _env("N"), default=_env("N") or None)
    p.add_argument("--gens", nargs="*", default=None,
                   help="generator files; skips the exhaustive subgroup enumeration")
    p.add_argument("--jobs", type=int, default=_env("JOBS") or 1,
                   help="worker processes (at least 1; at most one per group is started)")
    _add_format(p, ("json", "csv"))
    p.add_argument("--out", default=_env("OUT"))

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
    P, edges = load_poset_source(args.source), None
    if view != "base":
        edges = (edge_poset if view == "edge" else h_poset)(P)
        P = edges.poset
    report, ok = run_checks(P, args.source, view, checks, edges)
    if args.format == "dot":
        _emit(poset_to_dot(P), args.out)
    elif args.format == "csv":
        _emit(records_to_csv([report]), args.out)
    else:
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if ok else 1


def cmd_quotient(args):
    G = load_group(args.group, args.gens, args.n)
    record = action_record(G)
    out = asdict(record)
    # H(B_n) has the elements and ranks of E(B_n), and G induces the same maps
    # on both; a quotient's rank vector reads no covers, so H(B_n)/G has the
    # rank vector of E(B_n)/G
    out["rank_vector_h_quotient"] = out["rank_vector_edge_quotient"][:]
    if args.format == "csv":
        _emit(records_to_csv([out]), args.out)
    else:
        _emit(json.dumps(out, indent=2) + "\n", args.out)
    return 0 if record.peck_quotient_edge["peck"] else 1


def cmd_sweep(args):
    if args.jobs < 1:
        raise InvalidInput(f"--jobs {args.jobs} below 1")
    groups = None
    if args.gens:
        groups = [load_group(None, path, args.n) for path in args.gens]
    elif args.n > SWEEP_MAX_N:
        raise InvalidInput(
            f"exhaustive sweep supports n <= {SWEEP_MAX_N}; pass --gens for larger n"
        )
    records = sweep_records(args.n, jobs=args.jobs, groups=groups)
    dicts = [asdict(r) for r in records]
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
