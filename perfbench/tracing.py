"""Spans around the library's layer entry points, for the traced run.

``Tracer.patched()`` replaces each entry point with a wrapper that records
a span (layer, parent span, start, end, and one number taken from the
result) and restores the originals on exit.  A function is replaced in
every ``svbraid`` module that holds it, so calls through a module
attribute and calls through a name imported with ``from ... import`` are
both seen.  ``BraidWord`` construction is wrapped at class level through
``__post_init__``.  An entry point the library no longer has raises, so
a renamed layer fails the traced run instead of reporting zeros.  Spans
stay in memory until ``layer_metrics`` and ``dump`` read them at the end.

Search spans are split by caller: ``.sub`` when a
``_diagram_normal_trace`` span is open, ``.global`` otherwise.
``words.screen`` is the self time of the invariant functions called
directly from ``equivalent``.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name, number recorded from the result)
_FUNCTIONS = (
    ("words", "parse_word", "words.parse_word", None),
    ("words", "theta", "words.theta", None),
    ("words", "degree", "words.degree", None),
    ("words", "singularity_count", "words.singularity_count", None),
    ("words", "free_reduce_trace", "words.free_reduce_trace", None),
    ("words", "replay_trace", "words.replay_trace", None),
    ("words", "equivalent", "words.equivalent", None),
    ("words", "_diagram_normal_trace", "words._diagram_normal_trace",
     lambda r: int(r is None)),
    ("words", "_byte_neighbors", "words._byte_neighbors", len),
    ("search", "bidirectional_search", "search.bidirectional_search",
     lambda r: -1 if isinstance(r, list) else r[0]),
    ("gauss", "gauss_of_braid", "gauss.gauss_of_braid", None),
    ("gauss", "braid_of_gauss", "gauss.braid_of_gauss", None),
    ("gauss", "pair_invariants", "gauss.pair_invariants", None),
    ("gauss", "canonical_form_trace", "gauss.canonical_form_trace", None),
    ("gauss", "omega_equivalent", "gauss.omega_equivalent",
     lambda r: int(type(r).__name__ == "Equivalent")),
    ("desing", "eta_hat", "desing.eta_hat", len),
    ("desing", "degree_spectrum", "desing.degree_spectrum", None),
    ("pure", "decompose", "pure.decompose", None),
    ("pure", "factor_singular", "pure.factor_singular", None),
    ("pure", "verify_sp_relations", "pure.verify_sp_relations",
     lambda r: sum(type(c.verdict).__name__ == "Equivalent" for c in r.checks)),
    ("surface", "surface_summary", "surface.surface_summary", None),
)
_SCREEN = {"words.theta", "words.degree", "words.singularity_count",
           "gauss.gauss_of_braid", "gauss.pair_invariants"}
_NORMAL = "words._diagram_normal_trace"
_SEARCH = "search.bidirectional_search"


def layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []

    def add(prefix, *fields):
        for field in fields:
            unit, better = {
                "self_s": ("s", "lower"), "found_ratio": ("ratio", "higher"),
            }.get(field, ("count", "lower"))
            out.append((f"{prefix}.{field}", unit, better))

    add("words.parse_word", "calls", "self_s")
    add("words.BraidWord", "count", "self_s")
    add("desing.eta_hat", "calls", "terms", "self_s")
    add("desing.degree_spectrum", "self_s")
    for fn in ("gauss_of_braid", "braid_of_gauss", "pair_invariants",
               "canonical_form_trace"):
        add(f"gauss.{fn}", "self_s")
    add("pure.decompose", "self_s")
    add("pure.factor_singular", "self_s")
    add("surface.surface_summary", "self_s")
    add("gauss.omega_equivalent", "calls", "proved", "self_s")
    add("pure.verify_sp_relations", "certified", "self_s")
    add("words.screen", "self_s")
    add("words.free_reduce_trace", "self_s")
    add("words.replay_trace", "self_s")
    add("words._diagram_normal_trace", "calls", "failed", "self_s")
    add(f"{_SEARCH}.sub", "calls", "found_ratio", "self_s")
    add(f"{_SEARCH}.global", "calls", "found_ratio", "exhausted_nodes", "self_s")
    add("words._byte_neighbors", "calls", "neighbors", "self_s")
    out.append(("trace.spans", "count", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "higher"))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self._stack: list[int] = []
        self._normal_open = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, measure):
        tracer = self
        normal, sub, glob = (self._id(_NORMAL), self._id(_SEARCH + ".sub"),
                             self._id(_SEARCH + ".global"))
        own = self._id(name)

        def wrapper(*args, **kwargs):
            nid = own
            if name == _SEARCH:
                nid = sub if tracer._normal_open else glob
            elif nid == normal:
                tracer._normal_open += 1
            k = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.value.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(k)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[k] = time.perf_counter()
                tracer._stack.pop()
                if nid == normal:
                    tracer._normal_open -= 1
            if measure is not None:
                tracer.value[k] = measure(result)
            return result

        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers; the originals are back when the block ends."""
        import svbraid
        from svbraid import words

        modules = [m for key, m in sys.modules.items()
                   if key == "svbraid" or key.startswith("svbraid.")]
        undo = []
        try:
            for mod_name, attr, name, measure in _FUNCTIONS:
                original = getattr(getattr(svbraid, mod_name), attr)
                wrapper = self._wrap(original, name, measure)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, value))
                            setattr(mod, key, wrapper)
            cls = words.BraidWord
            init = cls.__dict__["__post_init__"]
            undo.append((cls, "__post_init__", init))
            cls.__post_init__ = self._wrap(init, "words.BraidWord", None)
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: calls, self time and the recorded numbers."""
        count = len(self.name)
        child = [0.0] * count
        for k in range(count):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        screen = {self._ids[n] for n in _SCREEN if n in self._ids}
        equiv = self._ids.get("words.equivalent", -2)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total: dict[str, int] = {}
        found: dict[str, int] = {}
        for k in range(count):
            name = self.names[self.name[k]]
            own = self.end[k] - self.start[k] - child[k]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            v = self.value[k]
            if name.startswith(_SEARCH):
                found[name] = found.get(name, 0) + (v < 0)
                v = max(v, 0)
            total[name] = total.get(name, 0) + v
            p = self.parent[k]
            if self.name[k] in screen and p >= 0 and self.name[p] == equiv:
                self_s["words.screen"] = self_s.get("words.screen", 0.0) + own

        def ratio(name):
            return found.get(name, 0) / calls[name] if calls.get(name) else 0.0

        out: dict[str, float] = {}
        for metric, _, _ in layer_names():
            prefix, field = metric.rsplit(".", 1)
            if field == "self_s":
                out[metric] = self_s.get(prefix, 0.0)
            elif field in ("calls", "count"):
                out[metric] = calls.get(prefix, 0)
            elif field == "found_ratio":
                out[metric] = ratio(prefix)
            elif field in ("terms", "neighbors", "failed", "proved",
                           "certified", "exhausted_nodes"):
                out[metric] = total.get(prefix, 0)
        out["trace.spans"] = count
        return out

    def dump(self, path) -> None:
        """Write every span as a tab-separated row: index, layer, parent
        index (-1 for none), start and end in seconds, recorded number."""
        with open(path, "w") as fh:
            fh.write("span\tlayer\tparent\tstart\tend\tvalue\n")
            names = self.names
            fh.writelines(
                f"{k}\t{names[self.name[k]]}\t{self.parent[k]}\t{self.start[k]!r}\t"
                f"{self.end[k]!r}\t{self.value[k]}\n" for k in range(len(self.name)))
