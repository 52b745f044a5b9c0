"""Spans and counters recorded around the library's public functions.

``Tracer.install`` replaces each traced function by a wrapper in every
``abdukit`` module that holds it, so calls between the library's own
modules go through the wrapper too.  This happens only in the traced
worker; nothing in the library changes.  A span is ``[name, start, end,
parent, query]``: ``parent`` is the index of the enclosing span (-1 for
none) and ``query`` the index of the query that caused it (-1 during
set-up).  ``analyse`` turns a written trace into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, span name); a span name of None counts calls only
_TRACED = [
    ("abdukit.parser", "parse", "parser.parse"),
    ("abdukit.core", "ground", "core.ground"),
    ("abdukit.core", "program_union", "core.program_union"),
    ("abdukit.core", "program_diff", "core.program_diff"),
    ("abdukit.core", "canonical_form", None),
    ("abdukit.solver", "answer_sets", "solver.answer_sets"),
    ("abdukit.solver", "encode", "solver.encode"),
    ("abdukit.solver", "consistent", "solver.consistent"),
    ("abdukit.solver", "entails", "solver.entails"),
    ("abdukit.abduction", "explanations", "abduction.explanations"),
    ("abdukit.abduction", "anti_explanations", "abduction.anti_explanations"),
    ("abdukit.abduction", "u_minimal_filter", None),
] + [
    ("abdukit.updates", name, "updates." + name)
    for name in (
        "view_insert",
        "view_delete",
        "maintain_integrity",
        "theory_update",
        "insert_rule",
        "delete_rule",
        "remove_inconsistency",
    )
]

_UPDATES = {f for m, f, s in _TRACED if m == "abdukit.updates"}
_EXPLAIN = ("abduction.explanations", "abduction.anti_explanations")


def _popcount(x: int) -> int:
    return bin(x).count("1")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.setup_counts: dict[str, float] = {}
        self.query = -1
        self._stack: list[int] = []
        self._active = True

    def _add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.query]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(record)
                record[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    tracer._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after(self, name: str):
        add = self._add

        def parse(args, unit):
            add("parser.rules", len(unit.program) + len(unit.abducibles) + len(unit.variable_rules))

        def ground(args, program):
            add("core.ground_rules_out", len(program))

        def canonical_form(args, rule):
            add("core.canonical_form_calls")

        def encode(args, enc):
            heads = 0
            for h in enc.heads:
                heads |= h
            add("encode.free_bits", _popcount(enc.free_mask))
            add("encode.dead_free_bits", _popcount(enc.free_mask & ~heads))

        def kernel(args, result):
            masks, contradictory = result
            add("kernel.candidates", 1 << _popcount(args[1]))
            add("kernel.answer_sets_out", len(masks) + int(contradictory))

        def u_minimal_filter(args, result):
            add("abduction.u_minimal_in", len(args[0].consistent_sets))
            add("abduction.u_minimal_kept", len(result.sets))

        def solutions(args, result):
            add("updates.solutions", len(result))

        hooks = {
            "parse": parse,
            "ground": ground,
            "canonical_form": canonical_form,
            "encode": encode,
            "enumerate_answer_sets": kernel,
            "u_minimal_filter": u_minimal_filter,
        }
        return hooks.get(name, solutions if name in _UPDATES else None)

    def install(self) -> None:
        """Wrap every traced function wherever an ``abdukit`` module holds it."""
        import abdukit
        import abdukit.solver

        targets = [(sys.modules[m], f, s) for m, f, s in _TRACED]
        targets.append((abdukit.solver._kernel, "enumerate_answer_sets", "kernel.enumerate"))
        modules = [m for n, m in sorted(sys.modules.items()) if n == "abdukit" or n.startswith("abdukit.")]
        for module, fname, span in targets:
            original = getattr(module, fname)
            wrapper = self._wrap(original, span, self._after(fname))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        program = abdukit.Program
        init = program.__init__

        def counted_init(obj, *args, **kwargs):
            if self._active:
                self._add("core.program_new")
            init(obj, *args, **kwargs)

        program.__init__ = counted_init

    def begin_queries(self) -> None:
        self.setup_counts = dict(self.counts)

    def stop(self) -> None:
        self._active = False

    def write(self, path: str) -> None:
        import abdukit.abduction
        import abdukit.solver

        info = abdukit.abduction._prepare_cached.cache_info()
        doc = {
            "counts": self.counts,
            "setup_counts": self.setup_counts,
            "prepare_hits": info.hits,
            "prepare_misses": info.misses,
            "cache_entries": len(abdukit.solver._CACHE),
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# turning a trace into per-layer metrics


def analyse(path: str, query_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a written trace; query_s is the summed latency
    of the traced queries.  Values are (number, unit)."""
    with open(path) as fh:
        doc = json.load(fh)
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, query in spans:
        if parent >= 0:
            covered[parent] += end - start

    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    recheck_calls, recheck_s = 0, 0.0
    solved: set[int] = set()
    for i, (name, start, end, parent, query) in enumerate(spans):
        if query < 0 and name != "parser.parse":
            continue
        dur = end - start
        layer = name.split(".", 1)[0] if name.startswith("updates.") else name
        total[layer] = total.get(layer, 0.0) + dur
        self_s[layer] = self_s.get(layer, 0.0) + dur - covered[i]
        calls[layer] = calls.get(layer, 0) + 1
        if name == "solver.answer_sets" and parent >= 0 and spans[parent][0] in _EXPLAIN:
            # the first solve of a query is the update program; later ones
            # are the skeptical re-checks of candidate pairs
            if parent in solved:
                recheck_calls += 1
                recheck_s += dur
            solved.add(parent)

    counts = {k: v - doc["setup_counts"].get(k, 0) for k, v in doc["counts"].items()}
    setup = doc["setup_counts"]

    def c(key: str) -> float:
        return counts.get(key, 0)

    candidates = c("kernel.candidates")
    kernel_s = total.get("kernel.enumerate", 0.0)
    return {
        "kernel.kernel_s": (kernel_s, "s"),
        "kernel.share": (kernel_s / query_s if query_s else 0.0, "ratio"),
        "kernel.candidates": (candidates, "count"),
        "kernel.answer_sets_out": (c("kernel.answer_sets_out"), "count"),
        "kernel.yield": (c("kernel.answer_sets_out") / candidates if candidates else 0.0, "ratio"),
        "encode.encode_s": (total.get("solver.encode", 0.0), "s"),
        "encode.free_bits": (c("encode.free_bits"), "count"),
        "encode.dead_free_bits": (c("encode.dead_free_bits"), "count"),
        "solver.answer_sets_calls": (calls.get("solver.answer_sets", 0), "count"),
        "solver.cache_hits": (
            calls.get("solver.answer_sets", 0) - calls.get("solver.encode", 0),
            "count",
        ),
        "solver.cache_entries": (doc["cache_entries"], "count"),
        "solver.self_s": (self_s.get("solver.answer_sets", 0.0), "s"),
        "abduction.self_s": (sum(self_s.get(n, 0.0) for n in _EXPLAIN), "s"),
        "abduction.prepare_hits": (doc["prepare_hits"], "count"),
        "abduction.prepare_misses": (doc["prepare_misses"], "count"),
        "abduction.u_minimal_in": (c("abduction.u_minimal_in"), "count"),
        "abduction.u_minimal_kept": (c("abduction.u_minimal_kept"), "count"),
        "abduction.recheck_calls": (recheck_calls, "count"),
        "abduction.recheck_s": (recheck_s, "s"),
        "core.ground_s": (total.get("core.ground", 0.0), "s"),
        "core.ground_calls": (calls.get("core.ground", 0), "count"),
        "core.ground_rules_out": (c("core.ground_rules_out"), "count"),
        "core.canonical_form_calls": (c("core.canonical_form_calls"), "count"),
        "core.program_new": (c("core.program_new"), "count"),
        "updates.self_s": (self_s.get("updates", 0.0), "s"),
        "updates.solutions": (c("updates.solutions"), "count"),
        "parser.parse_s": (total.get("parser.parse", 0.0), "s"),
        "parser.rules": (setup.get("parser.rules", 0), "count"),
    }
