"""Counts and layer spans for the permdec benchmark, installed from outside.

The library has no instrumentation of its own, so the tracer replaces the
library's functions and methods with wrappers while a round runs, and puts
the originals back afterwards.  A call belongs to the layer (module) that
defines its function or class, so ``RhoPiXY.__call__`` counts under
``gadgets`` although ``RhoPiXY`` subclasses ``normalform.RhoExpr``.

Two modes:

* ``full=False`` wraps only ``_decide`` on every ``EqExpr`` subclass and
  ``fwd``/``bwd`` on every ``PermExpr`` subclass, to count ``decides`` and
  ``perm_steps`` beside an untraced timing;
* ``full=True`` wraps every function and method of every layer module,
  records a span whenever a call enters a different layer than its caller,
  and derives the per-layer metrics from counts and spans.

A wrapped entry point that has gone from the library raises
``InstrumentationError`` instead of reading as zero.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict

import workloads as wl

LAYERS = ("core", "machine", "equivalence", "permutation", "cycles",
          "normalform", "conjugacy", "gadgets", "products", "serialize")
SELF_TIME_LAYERS = ("machine", "core", "gadgets", "equivalence", "permutation",
                    "cycles", "normalform", "products")

# kinds the workloads reach; a kind outside these lists stops the traced run,
# because its count would otherwise be reported under no name
DECIDE_KINDS = ("cycle_eq_of", "fibers_of", "modulo", "opaque", "pi_xy", "singletons")
STEP_KINDS = ("conjugator_same_partition", "coproduct_perm", "delta_succ",
              "finitary_product", "from_rho", "identity", "interred_cf", "inverse",
              "piecewise_residue", "seminormal_from_rho", "transposition",
              "transposition_times")

# per-layer metric -> unit, in the order printed
PER_LAYER_UNITS = {
    "machine.steps": "count",
    "machine.halts_within_calls": "count",
    "machine.self_s": "s",
    "core.pair_calls": "count",
    "core.unpair_calls": "count",
    "core.fuel_allocs": "count",
    "core.self_s": "s",
    "gadgets.rho_calls": "count",
    "gadgets.self_s": "s",
    **{f"equivalence.decides.{k}": "count" for k in DECIDE_KINDS},
    "equivalence.self_s": "s",
    "equivalence.blockcache.least_rep_calls": "count",
    "equivalence.blockcache.scan_decides": "count",
    "equivalence.blockcache.scan_useful": "ratio",
    **{f"permutation.steps.{k}": "count" for k in STEP_KINDS},
    "permutation.orbit_values": "count",
    "permutation.self_s": "s",
    "permutation.eta_decode_s": "s",
    "permutation.eta_code_bits": "bit",
    "cycles.decider_calls": "count",
    "cycles.self_s": "s",
    "normalform.normal_min_probes": "count",
    "normalform.rho_calls": "count",
    "normalform.self_s": "s",
    "products.builds": "count",
    "products.decider_calls": "count",
    "products.cf_calls": "count",
    "products.self_s": "s",
    "serialize.load_s": "s",
    "serialize.bytes": "byte",
    "trace.wall_s": "s",
}

# (module, dotted attribute) the per-layer metrics read; each must exist
REQUIRED = (
    ("equivalence", "EqExpr._decide"), ("permutation", "PermExpr.fwd"),
    ("permutation", "PermExpr.bwd"), ("machine", "step"),
    ("machine", "halts_within"), ("core", "pair"), ("core", "unpair"),
    ("core", "Fuel.__init__"), ("equivalence", "BlockCache.least_rep"),
    ("equivalence", "BlockCache._find_least_rep"),
    ("equivalence", "BlockCache._extend_to"), ("equivalence", "BlockCache.next_greater"),
    ("permutation", "OrbitCache.value"), ("permutation", "eta_decode"),
    ("normalform", "RhoExpr.__call__"), ("normalform", "normal_min_with_probes"),
    ("cycles", "CycleWitness"), ("cycles", "DECIDER"),
    ("cycles", "decider_one_infinite"), ("cycles", "decider_few_infinite"),
    ("cycles", "_convert_step"), ("products", "finitary_product"),
    ("products", "transposition_times_cf"), ("products", "_product_parts"),
    ("serialize", "loads"),
)

BLOCKCACHE_SCANS = ("_find_least_rep", "_extend_to", "next_greater")
WRAPPED_DUNDERS = ("__init__", "__call__")
SPANS_KEPT = 200_000  # bounds the memory and the file; counts and times cover all


class InstrumentationError(Exception):
    """An entry point the tracer wraps is missing, or a count reads zero."""


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _lookup(obj, dotted: str):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self, pd, full: bool):
        self.full = full
        self.mods = {name: importlib.import_module(f"{pd.__name__}.{name}") for name in LAYERS}
        self.pkg = pd
        missing = []
        for mod, dotted in REQUIRED:
            try:
                _lookup(self.mods[mod], dotted)
            except AttributeError:
                missing.append(f"{mod}.{dotted}")
        if missing:
            raise InstrumentationError("entry points gone: " + ", ".join(missing))
        self.counts: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[list] = [["bench", 0, 0, -1]]
        self._scan_depths: list[int] = []
        self._decide_depth = 0
        self._patches: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        if self.full:
            self._install_full()
        else:
            self._install_counts()
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _install_counts(self) -> None:
        counts = self.counts

        def counted(fn, prefix):
            def wrapper(obj, *args):
                counts[prefix + obj.kind] += 1
                return fn(obj, *args)
            return wrapper

        for cls in _subclasses(self.mods["equivalence"].EqExpr):
            if "_decide" in cls.__dict__:
                self._set(cls, "_decide", counted(cls.__dict__["_decide"], "equivalence.decides."))
        for cls in _subclasses(self.mods["permutation"].PermExpr):
            for name in ("fwd", "bwd"):
                if name in cls.__dict__:
                    self._set(cls, name, counted(cls.__dict__[name], "permutation.steps."))

    def decides(self) -> int:
        n = sum(v for k, v in self.counts.items() if k.startswith("equivalence.decides."))
        if n == 0:
            raise InstrumentationError("no _decide call was counted")
        return n

    def perm_steps(self) -> int:
        n = sum(v for k, v in self.counts.items() if k.startswith("permutation.steps."))
        if n == 0:
            raise InstrumentationError("no fwd/bwd call was counted")
        return n

    # -- spans --------------------------------------------------------------

    def _span(self, fn, layer: str, key=None, prefix=None):
        """Wrap fn: count it under key (or prefix + kind of its first
        argument) and open a span when it enters another layer."""
        counts, stack, spans, self_ns = self.counts, self._stack, self.spans, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            counts[key if prefix is None else prefix + args[0].kind] += 1
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0, len(spans)]
            if len(spans) < SPANS_KEPT:
                spans.append(None)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self_ns[layer] += dur - frame[2]
                parent[2] += dur
                if frame[3] < SPANS_KEPT:
                    spans[frame[3]] = (tracer.op_id, layer, parent[3], frame[1], end)
        return wrapper

    def _decide_wrapper(self, fn):
        counts = self.counts
        tracer = self

        def wrapper(obj, x, y, fuel):
            depth = tracer._decide_depth
            scans = tracer._scan_depths
            scan = bool(scans) and scans[-1] == depth
            tracer._decide_depth = depth + 1
            try:
                ans = fn(obj, x, y, fuel)
            finally:
                tracer._decide_depth = depth
            if scan:
                counts["equivalence.blockcache.scan_decides"] += 1
                if ans:
                    counts["blockcache.scan_true"] += 1
            return ans
        return wrapper

    def _scan_wrapper(self, fn):
        tracer = self

        def wrapper(*args):
            tracer._scan_depths.append(tracer._decide_depth)
            try:
                return fn(*args)
            finally:
                tracer._scan_depths.pop()
        return wrapper

    def _timed(self, fn, key, measure=None):
        counts = self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[key] += clock() - t0
                if measure is not None:
                    counts[measure[0]] += measure[1](*args)
        return wrapper

    def _install_full(self) -> None:
        mods = self.mods
        eqm, pmm, nfm = mods["equivalence"], mods["permutation"], mods["normalform"]
        perm_classes = set(_subclasses(pmm.PermExpr))
        eq_classes = set(_subclasses(eqm.EqExpr))
        rho_classes = set(_subclasses(nfm.RhoExpr))
        special_keys = {
            (mods["machine"], "step"): "machine.steps",
            (mods["machine"], "halts_within"): "machine.halts_within_calls",
            (mods["core"], "pair"): "core.pair_calls",
            (mods["core"], "unpair"): "core.unpair_calls",
            (mods["products"], "finitary_product"): "products.builds",
            (mods["products"], "transposition_times_cf"): "products.builds",
        }
        post = {
            (mods["products"], "_product_parts"): self._wrap_product_parts,
            (mods["normalform"], "normal_min_with_probes"): self._count_probes,
            (mods["cycles"], "decider_one_infinite"): self._wrap_witness,
            (mods["cycles"], "decider_few_infinite"): self._wrap_witness,
            (mods["cycles"], "_convert_step"): self._wrap_witness,
        }

        # module-level functions, replaced wherever a layer module (or the
        # package) imported them by name
        replaced = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                key = special_keys.get((mod, name), f"{layer}.{name}")
                wrapped = self._span(obj, layer, key=key)
                if (mod, name) in post:
                    wrapped = post[(mod, name)](wrapped)
                if (mod, name) == (mods["permutation"], "eta_decode"):
                    wrapped = self._timed(wrapped, "permutation.eta_decode_ns",
                                          ("permutation.eta_code_bits",
                                           lambda z: z.bit_length()))
                if (mod, name) == (mods["serialize"], "loads"):
                    wrapped = self._timed(wrapped, "serialize.load_ns",
                                          ("serialize.bytes",
                                           lambda text: len(text.encode())))
                replaced[id(obj)] = wrapped
        for ns in (*mods.values(), self.pkg):
            for name, obj in list(vars(ns).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._set(ns, name, replaced[id(obj)])

        # methods of the classes each layer defines
        for layer, mod in mods.items():
            for cname, cls in list(vars(mod).items()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                for name, fn in list(vars(cls).items()):
                    if not inspect.isfunction(fn):
                        continue
                    if name.startswith("__") and name not in WRAPPED_DUNDERS:
                        continue
                    if cls in perm_classes and name in ("fwd", "bwd"):
                        w = self._span(fn, layer, prefix="permutation.steps.")
                    elif cls in eq_classes and name == "_decide":
                        w = self._decide_wrapper(
                            self._span(fn, layer, prefix="equivalence.decides."))
                    elif cls in rho_classes and name == "__call__":
                        w = self._span(fn, layer, key=f"{layer}.rho_calls")
                    elif cls is mods["core"].Fuel and name == "__init__":
                        w = self._span(fn, layer, key="core.fuel_allocs")
                    elif cls is eqm.BlockCache and name == "least_rep":
                        w = self._span(fn, layer, key="equivalence.blockcache.least_rep_calls")
                    elif cls is pmm.OrbitCache and name == "value":
                        w = self._span(fn, layer, key="permutation.orbit_values")
                    else:
                        w = self._span(fn, layer, key=f"{layer}.{cname}.{name}")
                    if cls is eqm.BlockCache and name in BLOCKCACHE_SCANS:
                        w = self._scan_wrapper(w)
                    self._set(cls, name, w)

    # -- results of wrapped producers ----------------------------------------

    def _wrap_product_parts(self, fn):
        def wrapper(*args, **kwargs):
            decider, cf = fn(*args, **kwargs)
            return (self._span(decider, "products", key="products.decider_calls"),
                    self._span(cf, "products", key="products.cf_calls"))
        return wrapper

    def _wrap_witness(self, fn):
        cyc = self.mods["cycles"]

        def wrapper(*args, **kwargs):
            w = fn(*args, **kwargs)
            if w.kind == cyc.DECIDER:
                w.payload = self._span(w.payload, "cycles", key="cycles.decider_calls")
            return w
        return wrapper

    def _count_probes(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["normalform.normal_min_probes"] += result[1]
            return result
        return wrapper

    def root(self, fn):
        """Wrap a benchmark op: its spans share the op's identifier."""
        tracer = self
        inner = self._span(fn, "bench", key="bench.ops")

        def wrapper(*args):
            tracer.op_id += 1
            return inner(*args)
        return wrapper

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer metrics of what ran since the last reset."""
        c = self.counts
        for k in c:
            if k.startswith("equivalence.decides.") and k[20:] not in DECIDE_KINDS:
                raise InstrumentationError(f"decides of unlisted kind {k[20:]!r}")
            if k.startswith("permutation.steps.") and k[18:] not in STEP_KINDS:
                raise InstrumentationError(f"steps of unlisted kind {k[18:]!r}")
        out = {k: c.get(k, 0) for k in PER_LAYER_UNITS if PER_LAYER_UNITS[k] == "count"}
        scans = c.get("equivalence.blockcache.scan_decides", 0)
        out["equivalence.blockcache.scan_useful"] = (
            c.get("blockcache.scan_true", 0) / scans if scans else 0.0)
        out["permutation.eta_decode_s"] = c.get("permutation.eta_decode_ns", 0) / 1e9
        out["permutation.eta_code_bits"] = c.get("permutation.eta_code_bits", 0)
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = self.self_ns.get(layer, 0) / 1e9
        out["decides"] = self.decides()
        out["perm_steps"] = self.perm_steps()
        return out

    def reset(self) -> None:
        self.counts.clear()
        self.self_ns.clear()

    def write_spans(self, path: str) -> None:
        """Spans as JSON lines: op, layer, parent span index, start, end (ns)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s) + "\n")


TIMES = ("self_s", "eta_decode_s", "load_s")


def traced_round(tracer, pd, plan, load_inputs, run_round):
    """Load the inputs and run one round under an installed full tracer.
    The layer metrics cover the ops only, as the untraced counts do; loading
    gives the serialize metrics alone."""
    env = load_inputs(pd, plan)
    load_ns = tracer.counts.get("serialize.load_ns", 0)
    load_bytes = tracer.counts.get("serialize.bytes", 0)
    tracer.reset()
    answers, wall = run_round(pd, plan, env, [])
    metrics = tracer.snapshot()
    tracer.reset()
    metrics["serialize.load_s"] = load_ns / 1e9
    metrics["serialize.bytes"] = load_bytes
    return answers, wall, metrics


def traced_run(pd, plan, seconds, tally, load_inputs, run_round, spans_path):
    """Whole rounds under the full tracer until `seconds` have passed (at
    least one).  Counts must repeat exactly from round to round; times are
    medians over the rounds."""
    tracer = Tracer(pd, full=True)
    per_round: list[dict] = []
    walls: list[float] = []
    deadline = time.perf_counter() + seconds
    calls = dict(wl.CALLS)
    with tracer:
        for name, fn in calls.items():
            wl.CALLS[name] = tracer.root(fn)
        try:
            while True:
                answers, wall, metrics = traced_round(tracer, pd, plan, load_inputs, run_round)
                tally.add(answers)
                walls.append(wall)
                per_round.append(metrics)
                if time.perf_counter() >= deadline:
                    break
        finally:
            wl.CALLS.update(calls)
    first = per_round[0]
    for other in per_round[1:]:
        for k, v in first.items():
            if not k.endswith(TIMES) and other[k] != v:
                raise InstrumentationError(f"{k} differs between rounds: {v} and {other[k]}")
    tracer.write_spans(spans_path)
    metrics = {}
    for k, unit in PER_LAYER_UNITS.items():
        if k == "trace.wall_s":
            v = statistics.median(walls)
        elif k.endswith(TIMES):
            v = statistics.median(r[k] for r in per_round)
        else:
            v = first[k]
        metrics[k] = (v, unit)
    return metrics
