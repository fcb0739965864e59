"""In-memory spans around the public entry points of each `edgeposets` layer.

`install()` wraps every entry point in LAYERS.  A wrapper replaces the
original object in every `edgeposets` module that holds it (the CLI imports
names such as `is_cct` and `q_map` directly), methods and constructors are
wrapped at the class, and `PosetAction.element_maps` through its
`cached_property`.  Spans carry name, start, end, parent span and operation
id; `summary()` turns them into per-layer calls, self time and total time,
plus the exact derived counts.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from functools import cached_property

# layer -> entry points; "Class.method" or a module-level function name.
LAYERS = {
    "perms": ("subgroup_sweep", "PermGroup.__init__", "minimal_generators"),
    "actions": (
        "induced_bn_action",
        "PosetAction.element_maps",
        "is_cct",
        "quotient",
        "q_map",
        "action_on_edges",
    ),
    "edges": ("edge_poset", "h_poset"),
    "peck": (
        "is_peck",
        "is_strongly_sperner",
        "max_k_antichain_union",
        "is_unitary_peck",
        "lefschetz_power_rank",
        "ExactMatrix.rank",
    ),
    "poset": ("GradedPoset.__init__", "poset_from_json"),
    "cli": ("action_record", "sweep_records", "run_checks"),
}

CCT_METHODS = ("direct", "dual", "q-bijective", "rank-counts")


def span_names():
    """Every span name a traced run reports, in table order."""
    names = []
    for layer, entries in LAYERS.items():
        for entry in entries:
            if entry == "is_cct":
                names += [f"{layer}.is_cct.{m}" for m in CCT_METHODS]
            else:
                names.append(f"{layer}.{entry.removesuffix('.__init__')}")
    return names


# Counted by the wrappers: flow calls small enough for the exhaustive oracle,
# flow calls on a poset already certified unitary Peck (redundant work), and
# rows x cols summed over exact rank computations.
COUNTS = (
    "peck.max_k_antichain_union.oracle_checked_calls",
    "peck.max_k_antichain_union.after_unitary_yes_calls",
    "peck.ExactMatrix.rank.cells",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.stack = []
        self.op = None
        self.counts = dict.fromkeys(COUNTS, 0)
        self.unitary_yes = {}  # id -> poset certified unitary Peck in this op

    def begin_op(self, op):
        self.op = op
        self.unitary_yes.clear()

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters measured where the work happens --

    def _after_rank(self, args, kwargs, result):
        matrix = args[0]
        self.counts["peck.ExactMatrix.rank.cells"] += matrix.rows * matrix.cols

    def _after_unitary(self, args, kwargs, result):
        if result:
            P = args[0] if args else kwargs["P"]
            self.unitary_yes[id(P)] = P  # held, so the id cannot be reused

    def _after_flow(self, bind):
        def after(args, kwargs, result):
            call = bind(*args, **kwargs)
            call.apply_defaults()
            P = call.arguments["P"]
            if P.n <= call.arguments["oracle_threshold"]:
                self.counts["peck.max_k_antichain_union.oracle_checked_calls"] += 1
            if self.unitary_yes.get(id(P)) is P:
                self.counts["peck.max_k_antichain_union.after_unitary_yes_calls"] += 1

        return after

    def _is_cct(self, fn):
        wrapped = {m: self.wrap(f"actions.is_cct.{m}", fn) for m in CCT_METHODS}

        def is_cct(A, method="direct"):
            return wrapped.get(method, fn)(A, method)

        is_cct.__wrapped__ = fn
        return is_cct

    def summary(self):
        """Per-span calls/self_s/total_s and the derived counts."""
        names = span_names()
        calls = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0.0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        selfs = dict.fromkeys(names, 0.0)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            selfs[name] += end - start - child[sid]
        out = {}
        for name in names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = selfs[name]
            out[f"{name}.total_s"] = total[name]
        records = calls["cli.action_record"]
        for name in ("edges.edge_poset", "actions.quotient"):
            inside = sum(1 for sid, span in enumerate(self.spans)
                         if span[0] == name and self._under(sid, "cli.action_record"))
            out[f"{name}.calls_per_record"] = inside / records if records else 0.0
        out.update(self.counts)
        return out

    def _under(self, sid, ancestor):
        parent = self.spans[sid][3]
        while parent is not None:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _replace_everywhere(orig, new):
    """Rebind `orig` to `new` in every loaded edgeposets module; returns the count."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "edgeposets" or mod_name.startswith("edgeposets.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
                hits += 1
    return hits


def install():
    """Wrap every entry point in LAYERS and return the Tracer recording them."""
    import edgeposets.cli  # noqa: F401  (loads every module that holds a name)

    tracer = Tracer()
    for layer, entries in LAYERS.items():
        module = sys.modules[f"edgeposets.{layer}"]
        for entry in entries:
            name = f"{layer}.{entry.removesuffix('.__init__')}"
            if "." in entry:
                cls_name, attr = entry.split(".")
                cls = getattr(module, cls_name)
                orig = vars(cls)[attr]
                if isinstance(orig, cached_property):
                    prop = cached_property(tracer.wrap(name, orig.func))
                    prop.__set_name__(cls, attr)
                    setattr(cls, attr, prop)
                else:
                    after = tracer._after_rank if entry == "ExactMatrix.rank" else None
                    setattr(cls, attr, tracer.wrap(name, orig, after))
                continue
            orig = getattr(module, entry)
            if entry == "is_cct":
                new = tracer._is_cct(orig)
            elif entry == "is_unitary_peck":
                new = tracer.wrap(name, orig, tracer._after_unitary)
            elif entry == "max_k_antichain_union":
                new = tracer.wrap(name, orig, tracer._after_flow(inspect.signature(orig).bind))
            else:
                new = tracer.wrap(name, orig)
            if _replace_everywhere(orig, new) == 0:
                raise RuntimeError(f"entry point {layer}.{entry} not found")
    return tracer
