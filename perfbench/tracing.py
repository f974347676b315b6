"""Outside-in layer tracing: wrap each layer's entry points at run time.

A layer is a set of module-level functions of `oneplanar`.  While a
`Tracer` is installed, every module namespace (and `generators.FAMILIES`)
that binds one of those functions sees a wrapper instead.  The wrapper
records a span (layer, start, end, parent span, op id) and the layer's
counts; self time is a span's duration minus its children's.  Counts
marked "derived" are computed from the call's arguments and result.

Two entry points are private helpers: `embedding._face_orbits` (face
enumeration) and `embedding._insert_vertex_multi` (vertex insertion), and
`embedding._validate_uncached` marks a validation that missed the
per-drawing cache.  A name the program no longer has is reported as
absent rather than failing the run.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from math import comb
from time import perf_counter_ns
from typing import Any, Callable

Counter = Callable[[tuple, dict, Any], dict[str, int]]


def _text_in(args, kwargs, result):
    return {"calls": 1, "bytes": len(args[0])}


def _text_out(args, kwargs, result):
    return {"calls": 1, "bytes": len(result)}


def _cold(args, kwargs, result):
    return {"cold_calls": 1}


def _darts(args, kwargs, result):
    return {"calls": 1, "darts_walked": 2 * args[0].m_p}


def _segments(args, kwargs, result):
    drawings = [a for a in args if hasattr(a, "m_p")]
    return {"calls": 1, "input_segments": sum(d.m_p for d in drawings)}


def _vertices_out(args, kwargs, result):
    drawing = getattr(result, "drawing", result)
    return {"calls": 1, "vertices_out": drawing.n_real}


def blossom_failed_searches(n: int, matching_size: int) -> int:
    """Searches from an exposed root that found no augmenting path.

    Every root exposed at its turn is searched once, a successful search
    matches it for good, and a failed one leaves it exposed for good, so
    the failures are the vertices exposed at the end.
    """
    return n - 2 * matching_size


def _blossom(args, kwargs, result):
    n = args[0].n
    return {"calls": 1, "vertices": n, "failed_searches": blossom_failed_searches(n, len(result))}


def oracle_subsets(n: int, deficiency: int, witness_size: int) -> int:
    """Subsets the brute-force oracle visits before its size pruning stops it.

    Sizes run upwards and stop at the first k with n - 2k <= best so far,
    so every size up to max(|S*|, max{k : n - 2k > D}) is enumerated in full.
    """
    top = min(n, max(witness_size, (n - deficiency - 1) // 2))
    return sum(comb(n, k) for k in range(top + 1))


def _oracle(args, kwargs, result):
    return {"calls": 1, "subsets": oracle_subsets(args[0].n, result.deficiency, len(result.s))}


def _charging(args, kwargs, result):
    return {
        "calls": 1,
        "chords_added": len(result.added_chords),
        "aux_vertices": len(result.delta_vertices),
    }


def _audit(args, kwargs, result):
    return {"calls": 1, "violations": len(result.violations)}


def _calls(args, kwargs, result):
    return {"calls": 1}


SURGERIES = (
    "add_chord_in_face",
    "add_crossed_edge",
    "delete_edges",
    "wedge_at_vertex",
    "insert_vertex_in_face",
    "_insert_vertex_multi",
)

# (layer, module, function name, counter); families are added from FAMILIES.
ENTRY_POINTS: list[tuple[str, str, str, Counter]] = [
    ("cli", "cli", "main", _calls),
    ("graph.text", "graph", "parse_graph", _text_in),
    ("graph.text", "graph", "write_graph", _text_out),
    ("graph.components", "graph", "components", _calls),
    ("graph.components", "graph", "odd_components", _calls),
    ("embedding.text", "embedding", "parse_drawing", _text_in),
    ("embedding.text", "embedding", "write_drawing", _text_out),
    ("embedding.validate", "embedding", "validate", _calls),
    ("embedding.validate", "embedding", "_validate_uncached", _cold),
    ("embedding.faces", "embedding", "_face_orbits", _darts),
    *[("embedding.surgery", "embedding", name, _segments) for name in SURGERIES],
    ("generators", "generators", "random_oneplanar", _vertices_out),
    ("matcher.blossom", "matcher", "maximum_matching", _blossom),
    ("matcher.oracle", "matcher", "tutte_berge_bruteforce", _oracle),
    ("bounds.charging", "bounds", "charging_run", _charging),
    ("bounds.audit", "bounds", "charge_verify", _audit),
    ("bounds.certify", "bounds", "certify_matching_bound", _calls),
    ("bounds.certify", "bounds", "check_deficiency_mindeg34", _calls),
    ("bounds.certify", "bounds", "check_deficiency_mindeg5", _calls),
]

# Per-layer counts reported besides `calls` and `self_s`; "derived" ones
# are computed from arguments and results rather than observed.
LAYER_COUNTS: dict[str, tuple[str, ...]] = {
    "cli": (),
    "graph.text": ("bytes",),
    "graph.components": (),
    "embedding.text": ("bytes",),
    "embedding.validate": ("cold_calls",),
    "embedding.faces": ("darts_walked",),
    "embedding.surgery": ("input_segments",),
    "generators": ("vertices_out",),
    "matcher.blossom": ("vertices", "failed_searches"),
    "matcher.oracle": ("subsets",),
    "bounds.charging": ("chords_added", "aux_vertices"),
    "bounds.audit": ("violations",),
    "bounds.certify": (),
}
DERIVED = {"embedding.faces.darts_walked", "embedding.surgery.input_segments",
           "matcher.blossom.failed_searches", "matcher.oracle.subsets"}


class Tracer:
    """Spans and counts of one traced pass; install() around each traced op."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.absent: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, fn: Callable, counter: Counter) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserved so children see this span's index
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.op_id)
            for key, value in counter(args, kwargs, result).items():
                counts[layer][key] += value
            return result

        return wrapper

    def _targets(self, pkg: Any) -> list[tuple[str, Callable, Counter]]:
        found = []
        for layer, module, name, counter in ENTRY_POINTS:
            fn = getattr(getattr(pkg, module), name, None)
            if fn is None:
                self.absent.append(f"{module}.{name}")
            else:
                found.append((layer, fn, counter))
        families = getattr(pkg.generators, "FAMILIES", {})
        found += [("generators", fn, _vertices_out) for fn, _ in families.values()]
        return found

    def install(self, pkg: Any) -> None:
        """Rebind every entry point in every `oneplanar` module namespace."""
        self.absent.clear()
        wrappers = {id(fn): self._wrap(layer, fn, counter) for layer, fn, counter in self._targets(pkg)}
        prefix = pkg.__name__ + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == pkg.__name__ or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])
        families = getattr(pkg.generators, "FAMILIES", {})
        for key, (fn, pname) in list(families.items()):
            if id(fn) in wrappers:
                self._patch(families, key, (wrappers[id(fn)], pname))

    def _patch(self, target: Any, key: str, new: Any) -> None:
        """Bind `new` to a module attribute or dict entry, remembering the old value."""
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = new
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, new)

    def uninstall(self) -> None:
        for target, key, old in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds spent in each layer excluding time in nested traced calls."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            out[layer] += (end - start - child[i]) / 1e9
        return out

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out: dict[str, float] = {}
        for layer, extra in LAYER_COUNTS.items():
            out[f"{layer}.calls"] = self.counts[layer]["calls"]
            out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
            for key in extra:
                out[f"{layer}.{key}"] = self.counts[layer][key]
        return out


def per_layer_names() -> list[str]:
    names = [f"{layer}.{key}" for layer, extra in LAYER_COUNTS.items() for key in ("calls", "self_s", *extra)]
    return names + [
        "trace.overhead_ratio",
        "generators.delta3.growth_per_doubling",
        "matcher.blossom.growth_per_doubling",
    ]


def growth_per_doubling(times: list[float]) -> float:
    """Geometric-mean time ratio per doubling of the size, over a doubling sweep."""
    return (times[-1] / times[0]) ** (1 / (len(times) - 1))
