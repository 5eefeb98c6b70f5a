"""Span tracing of kirby4's public functions, patched in from outside the package.

Every public function defined in one of LAYERS is wrapped, and the wrapper
replaces the original under every name any kirby4 module holds it by (for
example ``classify`` in kirby4.forms and kirby4.invariants, and
``classify_form`` in kirby4.classify).  A span is [name, parent, decision,
start, end, status]; spans stay in memory until the run writes them out.
A span's self time is its duration minus its child spans and minus the time
the tracer spent computing counters after a child returned.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("knot", "forms", "matrices", "diagram", "invariants", "classify", "cli")

# Per-layer metric -> functions whose self time it sums, reported in ms per
# decision; a name ending in "." stands for every function of that layer.
TIME_METRICS = {
    "knot.sublink_ms": ("knot.characteristic_sublink",),
    "knot.band_sum_ms": ("knot.band_sum",),
    "knot.det_ms": ("knot.alexander_at_minus_one", "knot.alexander_polynomial",
                    "knot.arf_invariant"),
    "forms.diagonalize_ms": ("forms.diagonalize_over_Q",),
    "forms.charvec_ms": ("forms.characteristic_vector",),
    "forms.short_vectors_ms": ("forms.short_vectors",),
    "forms.search_ms": ("forms.congruent_definite",),
    "matrices.det_ms": ("matrices.bareiss_det",),
    "diagram.parse_ms": ("diagram.parse_framed_link",),
    "diagram.linking_matrix_ms": ("diagram.linking_matrix",),
    "diagram.mirror_ms": ("diagram.mirror",),
    "invariants.self_ms": ("invariants.",),
    "classify.self_ms": ("classify.",),
    "cli.self_ms": ("cli.",),
}
# Per-layer metric -> function whose calls it counts, per pass over the case list.
CALL_METRICS = {
    "forms.diagonalize_calls": "forms.diagonalize_over_Q",
    "forms.classify_calls": "forms.classify",
    "matrices.det_calls": "matrices.bareiss_det",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _quadratic(v, x):
    n = len(x)
    return sum(x[i] * v[i][j] * x[j] for i in range(n) if x[i] for j in range(n) if x[j])


class Tracer:
    """Records spans and work counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.excluded: dict[int, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.stack: list[tuple[int, str, tuple, dict]] = []
        self.decision = -1
        self._first_span = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"kirby4.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name != "kirby4" and not name.startswith("kirby4."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, excluded = self.spans, self.stack, self.excluded
        post = getattr(self, "_post_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append([name, parent, self.decision, perf_counter(), 0.0, "running"])
            stack.append((sid, name, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[sid][4] = perf_counter()
                spans[sid][5] = type(exc).__name__
                stack.pop()
                raise
            end = perf_counter()
            span = spans[sid]
            span[4], span[5] = end, "ok"
            stack.pop()
            if post is not None:
                post(args, kwargs, result)
                if parent is not None:
                    excluded[parent] += perf_counter() - end
            return result

        return traced

    # -- counters computed from a finished call ----------------------------

    def _post_knot_band_sum(self, args, kwargs, kc):
        self.counts["kc_crossings"] += len(kc.crossings)
        self.counts["sublink_crossings"] += len(_arg(args, kwargs, 0, "sub").crossings)

    def _post_knot_alexander_at_minus_one(self, args, kwargs, value):
        self.maxima["det_bits"] = max(self.maxima["det_bits"], abs(value).bit_length())

    def _post_forms_diagonalize_over_Q(self, args, kwargs, result):
        bits = max((abs(x).bit_length() for x in result[1].diagonal()), default=0)
        self.maxima["diag_bits"] = max(self.maxima["diag_bits"], bits)

    def _post_forms_short_vectors(self, args, kwargs, vectors):
        self.counts["short_vectors"] += len(vectors)
        search = next((f for f in reversed(self.stack) if f[1] == "forms.congruent_definite"),
                      None)
        if search is None or not vectors:
            return
        w = _arg(search[2], search[3], 1, "w")
        wanted = set(w.diagonal())
        v = _arg(args, kwargs, 0, "v").entries
        self.counts["short_vectors_useful"] += sum(_quadratic(v, x) in wanted for x in vectors)

    def _post_diagram_parse_framed_link(self, args, kwargs, link):
        self.counts["crossings"] += len(link.crossings)

    # -- decisions ---------------------------------------------------------

    def begin(self, decision: int) -> None:
        self.decision = decision
        self.stack.clear()
        self._first_span = len(self.spans)

    def end(self) -> None:
        """Close spans a budget interrupt left open."""
        now = perf_counter()
        for span in self.spans[self._first_span:]:
            if span[5] == "running":
                span[4], span[5] = now, "aborted"
        self.stack.clear()

    # -- results -----------------------------------------------------------

    def fired(self) -> set[str]:
        return {s[0] for s in self.spans}

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for name, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = defaultdict(float)
        for sid, (name, _, _, start, end, _) in enumerate(self.spans):
            total[name] += end - start - child[sid] - self.excluded.get(sid, 0.0)
        return total

    def metrics(self, decisions: int, passes: int) -> dict[str, float]:
        """Per-layer metrics: times in ms per decision, counts per pass."""
        selfs = self.self_times()
        calls = Counter(s[0] for s in self.spans)
        out = {}
        for metric, names in TIME_METRICS.items():
            secs = sum(t for n, t in selfs.items()
                       if any(n.startswith(p) if p.endswith(".") else n == p for p in names))
            out[metric] = 1000.0 * secs / decisions
        per_pass = lambda x: x // passes if x % passes == 0 else x / passes
        for metric, name in CALL_METRICS.items():
            out[metric] = per_pass(calls[name])
        c = self.counts
        out["knot.kc_crossings"] = per_pass(c["kc_crossings"])
        out["knot.kc_growth"] = (c["kc_crossings"] / c["sublink_crossings"]
                                 if c["sublink_crossings"] else 0.0)
        out["knot.det_bits"] = self.maxima["det_bits"]
        out["forms.diag_bits"] = self.maxima["diag_bits"]
        out["forms.short_vectors"] = per_pass(c["short_vectors"])
        out["forms.short_vectors_useful"] = (c["short_vectors_useful"] / c["short_vectors"]
                                             if c["short_vectors"] else 0.0)
        out["diagram.crossings"] = per_pass(c["crossings"])
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (name, parent, decision, start, end, status) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "decision": decision,
                                     "name": name, "start": start, "end": end,
                                     "status": status}) + "\n")
