"""Span recorder and the wrappers that attach it to the gstab layers.

A span is one call into a layer: its name, start, end, parent span and a
few work counts.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the part of it that its child spans cover.

``install`` wraps every public function of the ten gstab modules, plus the
private helpers one module imports from another, and rebinds each wrapper
under every name that held the original in any gstab module, so calls
across modules are recorded.  It also patches the hot methods named in
``METHODS`` on their classes.  ``restore`` undoes all of it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

LAYERS = (
    "gauss", "hermite", "tensors", "chaos", "partitions",
    "rounding", "product_space", "cube", "search", "cli",
)


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    parent: int
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # wrappers record only while enabled, so oracle calls between
        # rounds leave no spans
        self.enabled = True

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(len(self.spans), name, layer, self.clock(), parent)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def close(self, span: Span, error: bool = False) -> None:
        span.end = self.clock()
        span.error = error
        popped = self._stack.pop()
        if popped != span.sid:
            raise RuntimeError(f"span {span.name} closed out of order")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        kids = children.get(s.sid)
        covered = _covered(kids, s.start, s.end) if kids else 0.0
        out.append(max(s.end - s.start - covered, 0.0))
    return out


# ---------------------------------------------------------------------------
# count hooks: cheap functions of (args, kwargs, result) that attach the
# work a span did.  They read shapes and fields only.


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    if not shape:
        return 1
    return int(shape[0]) if len(shape) > 1 else 1


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _ou_counts(args, kwargs, result):
    points = _arg(args, kwargs, 2, "points")
    order = _arg(args, kwargs, 3, "quad_order", 40)
    n = points.shape[-1] if getattr(points, "ndim", 1) > 1 else len(points)
    return {"node_points": order**n * _rows(points)}


def _smooth_counts(args, kwargs, result):
    from gstab.partitions import Halfspace, MultiPTF, Slabs, Tabulated

    f = args[0]
    if isinstance(f, (Slabs, Halfspace)) or (isinstance(f, MultiPTF) and f.n == 1):
        route = "interval"
    elif isinstance(f, Tabulated) and f.n <= 12:
        route = "tabulated"
    else:
        route = "generic"
    return {"route": route, "points": int(result.shape[0])}


def _match_counts(args, kwargs, result):
    return {"searches": 1, "converged": int(bool(result.converged))}


def _search_counts(args, kwargs, result):
    return {"candidates": int(result.evaluations)}


def _chisq_counts(args, kwargs, result):
    return {"samples": int(result.samples)}


def _cube_counts(args, kwargs, result):
    return {"points": 1 << args[0].n}


def _points_counts(args, kwargs, result):
    return {"points": _rows(args[1])}


def _pairs_counts(args, kwargs, result):
    return {"pairs": int(_arg(args, kwargs, 1, "count"))}


def _strategy_counts(args, kwargs, result):
    return {"symbols": int(args[1].size) if hasattr(args[1], "size") else 0}


FUNCTION_HOOKS = {
    "hermite.ou_on_points": _ou_counts,
    "rounding.smoothed_partition_values": _smooth_counts,
    "rounding._match_threshold_on_values": _match_counts,
    "rounding.find_matching_threshold": _match_counts,
    "search.optimize_stability": _search_counts,
    "chaos.pair_block_product_difference": _chisq_counts,
    "cube.cube_stability": _cube_counts,
    "cube.cube_influences": _cube_counts,
    "tensors.ito_eval_many": _points_counts,
}

# (module, class, method, span name, hook)
METHODS = (
    ("chaos", "PolyGauss", "eval_many", "chaos.eval", _points_counts),
    ("partitions", "Halfspace", "labels", "partitions.labels.halfspace", _points_counts),
    ("partitions", "Slabs", "labels", "partitions.labels.slabs", _points_counts),
    ("partitions", "MultiPTF", "labels", "partitions.labels.ptf", _points_counts),
    ("partitions", "Tabulated", "labels", "partitions.labels.tabulated", _points_counts),
    ("partitions", "Callback", "labels", "partitions.labels.callback", _points_counts),
    ("search", "_RoundedPartition", "labels", "search.rounded_labels", _points_counts),
    ("gauss", "CorrelatedSampler", "pairs", "gauss.sampler.pairs", _pairs_counts),
    ("product_space", "BlockStrategy", "__call__", "product_space.strategy", _strategy_counts),
    ("product_space", "JointDist", "sample", "product_space.sample", None),
)


def _wrap(tracer: Tracer, fn, name: str, layer: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span, error=True)
            raise
        tracer.close(span)
        if hook is not None:
            span.counts = hook(args, kwargs, result)
        return result

    return wrapper


def _wrap_batches(tracer: Tracer, fn):
    """CorrelatedSampler.pair_batches: one span per batch drawn."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        gen = fn(self, *args, **kwargs)
        if not tracer.enabled:
            yield from gen
            return
        while True:
            span = tracer.open("gauss.sampler.batch", "gauss")
            try:
                x, y = next(gen)
            except StopIteration:
                tracer.close(span)
                return
            except BaseException:
                tracer.close(span, error=True)
                raise
            tracer.close(span)
            span.counts = {"pairs": int(x.shape[0])}
            yield x, y

    return wrapper


def _public(mod) -> set[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return set(names)


def install(tracer: Tracer):
    """Wrap the gstab layers; returns a function that restores them."""
    modules = {m: importlib.import_module(f"gstab.{m}") for m in LAYERS}
    # every function object, by identity, and the modules that bind it
    bindings: dict[int, list[tuple[object, str]]] = {}
    owners: dict[int, tuple[str, object]] = {}
    for mod in modules.values():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__.startswith("gstab."):
                bindings.setdefault(id(obj), []).append((mod, attr))
                owner = obj.__module__.split(".", 1)[1]
                if owner in modules:
                    owners[id(obj)] = (owner, obj)
    undo: list[tuple[object, str, object]] = []
    for key, (owner, fn) in owners.items():
        mod = modules[owner]
        binds = bindings[key]
        cross = any(m is not mod for m, _ in binds)
        if not (fn.__name__ in _public(mod) or cross):
            continue
        if inspect.isgeneratorfunction(fn):
            continue
        name = f"{owner}.{fn.__name__}"
        wrapper = _wrap(tracer, fn, name, owner, FUNCTION_HOOKS.get(name))
        for m, attr in binds:
            undo.append((m, attr, fn))
            setattr(m, attr, wrapper)
    for owner, cls_name, meth, name, hook in METHODS:
        cls = getattr(modules[owner], cls_name)
        fn = cls.__dict__[meth]
        undo.append((cls, meth, fn))
        setattr(cls, meth, _wrap(tracer, fn, name, owner, hook))
    sampler = modules["gauss"].CorrelatedSampler
    fn = sampler.__dict__["pair_batches"]
    undo.append((sampler, "pair_batches", fn))
    setattr(sampler, "pair_batches", _wrap_batches(tracer, fn))

    def restore():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics from a list of spans


class SpanIndex:
    """Self and inclusive times of a span list, grouped by name."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.self_s = self_times(spans)
        self.by_name: dict[str, list[int]] = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s.sid)

    def ids(self, *names: str) -> list[int]:
        return [i for n in names for i in self.by_name.get(n, [])]

    def has_ancestor(self, sid: int, names: set[str]) -> bool:
        p = self.spans[sid].parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def self_sum(self, ids) -> float:
        return float(sum(self.self_s[i] for i in ids))

    def busy(self, *names: str) -> float:
        """Inclusive time of the named spans, nested repeats counted once."""
        group = set(names)
        return float(sum(
            self.spans[i].end - self.spans[i].start
            for i in self.ids(*names) if not self.has_ancestor(i, group)
        ))

    def count(self, key: str, *names: str, **match) -> float:
        total = 0.0
        for i in self.ids(*names):
            c = self.spans[i].counts
            if all(c.get(k) == v for k, v in match.items()):
                total += c.get(key, 0)
        return total


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], rounds: int, ncd: dict | None = None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced round; rates are work / busy time.

    ``ncd`` holds one round's NCD enumeration sizes (pairs, tables,
    feasible), which the workload counts from its inputs.
    """
    ix = SpanIndex(spans)
    per = 1.0 / max(rounds, 1)
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit, per_round=True):
        out[name] = (value * per if per_round else value, unit)

    for layer in LAYERS:
        ids = [s.sid for s in spans if s.layer == layer]
        put(f"{layer}.calls", len(ids), "count")
        put(f"{layer}.self_s", ix.self_sum(ids), "s")
        put(f"{layer}.errors", sum(spans[i].error for i in ids), "count")

    ou = {"hermite.ou_on_points"}
    ou_ids = [s.sid for s in spans if s.layer == "hermite" and (s.name in ou or ix.has_ancestor(s.sid, ou))]
    node_points = ix.count("node_points", "hermite.ou_on_points")
    put("hermite.ou.self_s", ix.self_sum(ou_ids), "s")
    put("hermite.ou.node_points", node_points, "count")
    put("hermite.ou.node_points_per_s", _rate(node_points, ix.busy("hermite.ou_on_points")), "1/s", False)

    smooth = "rounding.smoothed_partition_values"
    for route in ("generic", "interval", "tabulated"):
        ids = [i for i in ix.ids(smooth) if spans[i].counts.get("route") == route]
        points = ix.count("points", smooth, route=route)
        busy = float(sum(spans[i].end - spans[i].start for i in ids if not ix.has_ancestor(i, {smooth})))
        put(f"rounding.smooth.{route}.points", points, "count")
        put(f"rounding.smooth.{route}.self_s", ix.self_sum(ids), "s")
        put(f"rounding.smooth.{route}.points_per_s", _rate(points, busy), "1/s", False)

    match = ("rounding._match_threshold_on_values", "rounding.find_matching_threshold")
    searches = ix.count("searches", *match)
    put("rounding.match.self_s", ix.self_sum(ix.ids(*match)), "s")
    put("rounding.round.calls", len(ix.ids("rounding.round_values")), "count")
    put("rounding.match.converged_ratio", _rate(ix.count("converged", *match), searches), "ratio", False)

    points = ix.count("points", "chaos.eval")
    put("chaos.eval.points", points, "count")
    put("chaos.eval.self_s", ix.self_sum(ix.ids("chaos.eval")), "s")
    put("chaos.eval.points_per_s", _rate(points, ix.busy("chaos.eval")), "1/s", False)
    put("tensors.ito_eval.points_per_s",
        _rate(ix.count("points", "tensors.ito_eval_many"), ix.busy("tensors.ito_eval_many")), "1/s", False)

    chisq = "chaos.pair_block_product_difference"
    put("chaos.chisq.samples_per_s", _rate(ix.count("samples", chisq), ix.busy(chisq)), "1/s", False)
    put("chaos.chisq.self_s", ix.self_sum(ix.ids(chisq)), "s")

    sampler = ("gauss.sampler.pairs", "gauss.sampler.batch")
    pairs = ix.count("pairs", *sampler)
    put("gauss.sampler.pairs", pairs, "count")
    put("gauss.sampler.self_s", ix.self_sum(ix.ids(*sampler)), "s")
    put("gauss.sampler.pairs_per_s", _rate(pairs, ix.busy(*sampler)), "1/s", False)
    rule = ("gauss.gauss_hermite_rule", "gauss.tensor_grid")
    put("gauss.rule.calls", len(ix.ids(*rule)), "count")
    put("gauss.rule.self_s", ix.self_sum(ix.ids(*rule)), "s")

    for variant in ("halfspace", "slabs", "ptf", "tabulated"):
        name = f"partitions.labels.{variant}"
        points = ix.count("points", name)
        put(f"{name}.points", points, "count")
        put(f"{name}.self_s", ix.self_sum(ix.ids(name)), "s")
        put(f"{name}.points_per_s", _rate(points, ix.busy(name)), "1/s", False)

    strategy = "product_space.strategy"
    put("product_space.strategy.symbols_per_s", _rate(ix.count("symbols", strategy), ix.busy(strategy)), "1/s", False)
    put("product_space.strategy.self_s", ix.self_sum(ix.ids(strategy)), "s")
    put("product_space.sample.self_s", ix.self_sum(ix.ids("product_space.sample")), "s")
    put("product_space.fourier.self_s", ix.self_sum(ix.ids("product_space.tensor_fourier")), "s")
    put("product_space.basis.self_s", ix.self_sum(ix.ids("product_space.correlation_basis")), "s")

    put("cube.walsh.self_s", ix.self_sum(ix.ids("cube.walsh_transform")), "s")
    put("cube.stability.self_s", ix.self_sum(ix.ids("cube.cube_stability")), "s")
    put("cube.influences.self_s", ix.self_sum(ix.ids("cube.cube_influences")), "s")
    cube_ops = ("cube.cube_stability", "cube.cube_influences")
    put("cube.points_per_s", _rate(ix.count("points", *cube_ops), ix.busy(*cube_ops)), "1/s", False)

    candidates = ix.count("candidates", "search.optimize_stability")
    put("search.candidates", candidates, "count")
    put("search.candidates_per_s", _rate(candidates, ix.busy("search.optimize_stability")), "1/s", False)
    ncd = ncd or {"pairs": 0, "tables": 0, "feasible": 0}
    ncd_busy = ix.busy("search.ncd_decide", "search.ncd_brute_oracle")
    put("search.ncd.pairs", ncd["pairs"], "count", False)
    put("search.ncd.pairs_per_s", _rate(ncd["pairs"] * rounds, ncd_busy), "1/s", False)
    put("search.ncd.feasible_tables_ratio", _rate(ncd["feasible"], ncd["tables"]), "ratio", False)
    return out
