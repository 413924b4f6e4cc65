"""Span recording at the module boundaries of ``foulkes``, from outside.

The benchmark never edits the library.  Instead :func:`install` replaces
module-level public names (the bindings that callers actually look up) with
wrappers that record a span per call: layer name, parent span, start, end and
a few counts.  Spans live in memory and are written out once, when the
session ends.  :func:`layer_metrics` turns the spans of one session into the
per-layer metrics, with self time computed as a span's duration minus the
durations of its child spans.

Nothing here changes an answer: every wrapper calls the original and returns
its result (generators are materialised first, so their cost lands inside
the span).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

SPAN_FILE_ENV = "PERFBENCH_SPAN_FILE"
SPAWN_NS_ENV = "PERFBENCH_SPAWN_NS"

# Per-layer metrics in output order: name -> unit.
LAYER_METRICS = {
    "families.ideals_s": "s",
    "families.ideals": "count",
    "families.product_s": "s",
    "families.candidate_tuples": "count",
    "families.minimal_types": "count",
    "families.minimal_frac": "ratio",
    "families.is_minimal_s": "s",
    "families.is_minimal_calls": "count",
    "partitions.filter_s": "s",
    "partitions.filter_calls": "count",
    "partitions.filter_in": "count",
    "partitions.filter_out": "count",
    "constituents.report_s": "s",
    "constituents.self_s": "s",
    "constituents.reports": "count",
    "constituents.labels": "count",
    "oracle.expand_s": "s",
    "oracle.char_s": "s",
    "oracle.char_values": "count",
    "oracle.assembly_s": "s",
    "oracle.coeff_s": "s",
    "oracle.coeff_calls": "count",
    "oracle.guard_warnings": "count",
    "oracle.table_load_s": "s",
    "oracle.table_save_s": "s",
    "oracle.table_bytes": "B",
    "memo.char_entries": "count",
    "memo.power_sum_entries": "count",
    "memo.table_entries": "count",
    "memo.closed_families_entries": "count",
    "memo.tuple_types_entries": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "cli.stdout_bytes": "B",
    "special.s": "s",
    "trace.overhead_s": "s",
}


def monotonic_ns() -> int:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span log.  A span is ``[name, request, parent, t0, t1, counts]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.recording = False
        self.request = -1

    def wrap(self, name, fn, counts=None, materialize=False):
        """Return ``fn`` wrapped in a span named ``name``.

        ``counts(args, result)`` returns a dict of counts kept on the span;
        ``materialize`` turns a returned generator into a list inside the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            span = [name, self.request, parent, time.perf_counter(), 0.0, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()
            if counts is not None:
                span[5] = counts(args, result)
            return iter(result) if materialize else result

        return traced

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def _patch(module, attr, wrapper):
    # A name the library no longer binds is skipped; its metric then reads 0.
    if hasattr(module, attr):
        setattr(module, attr, wrapper(getattr(module, attr)))


def install(tracer: Tracer) -> list:
    """Wrap the public names each layer calls through.

    A name is patched in every module namespace that binds it (``from x
    import y`` copies the binding), so calls are seen wherever they start.
    Returns the list that collects every character table loaded while
    recording, for the memo sizes.
    """
    import foulkes.cli as cli
    import foulkes.constituents as constituents
    import foulkes.families as families
    import foulkes.oracle as oracle

    unwrapped_ideals = families.enumerate_closed_families

    def ideals(fn):
        return tracer.wrap(
            "families.ideals", fn, counts=lambda a, r: {"ideals": len(r)}, materialize=True
        )

    for mod in (families, cli):
        _patch(mod, "enumerate_closed_families", ideals)

    def minimal_types(fn):
        # Enumerate each component's ideals first, through the public name,
        # so the ideal time is its own child span; the library call then
        # finds them in its memo, and what is left of the span beyond its
        # children is the tuple product.
        def pre_enumerating(m, shapes, kind):
            for nj in shapes:
                list(families.enumerate_closed_families(m, nj, kind))
            return fn(m, shapes, kind)

        def counts(args, result):
            m, shapes, kind = args
            candidates = 1
            for nj in shapes:
                candidates *= len(list(unwrapped_ideals(m, nj, kind)))
            return {"candidates": candidates, "out": len(result)}

        return tracer.wrap("families.minimal_types", pre_enumerating, counts=counts)

    _patch(constituents, "enumerate_minimal_tuple_types", minimal_types)

    def is_minimal(fn):
        return tracer.wrap("families.is_minimal", fn)

    for mod in (families, cli):
        _patch(mod, "is_minimal_tuple", is_minimal)

    def dominance_filter(fn):
        traced = tracer.wrap(
            "partitions.filter", fn, counts=lambda a, r: {"in": len(set(a[0])), "out": len(r)}
        )
        return lambda partitions: traced(list(partitions))

    for mod in (families, cli):
        _patch(mod, "dominance_minimal_elements", dominance_filter)
        _patch(mod, "dominance_maximal_elements", dominance_filter)

    def report(fn):
        return tracer.wrap(
            "constituents.report", fn, counts=lambda a, r: {"labels": len(r.labels)}
        )

    for mod in (constituents, cli):
        for name in (
            "minimal_constituents_phi",
            "maximal_constituents_phi",
            "minimal_constituents_psi",
            "maximal_constituents_psi",
        ):
            _patch(mod, name, report)
    _patch(cli, "certificate_from_closed_tuple", lambda fn: tracer.wrap("constituents.certificate", fn))

    _patch(oracle, "character_value", lambda fn: tracer.wrap("oracle.char", fn))
    _patch(cli, "plethysm_expansion", lambda fn: tracer.wrap("oracle.expand", fn))
    _patch(oracle, "multiplicity", lambda fn: tracer.wrap("oracle.coeff", fn))

    tables = []

    def keep_table(args, table):
        tables.append(table)
        return None

    cls = oracle.CharacterTable
    load = cls.__dict__["load_or_create"].__func__
    cls.load_or_create = classmethod(tracer.wrap("oracle.table_load", load, counts=keep_table))
    cls.save_to = tracer.wrap("oracle.table_save", cls.save_to)

    for name in ("agaoka_lex_least", "theta_decomposition"):
        _patch(cli, name, lambda fn: tracer.wrap("special", fn))
    return tables


def memo_sizes(tables=()) -> dict[str, int]:
    """Entries held by the library's memos (0 where a memo does not exist)."""
    import foulkes.families as families
    import foulkes.oracle as oracle

    def cached(fn) -> int:
        info = getattr(fn, "cache_info", None)
        return info().currsize if info else 0

    return {
        "memo.char_entries": len(getattr(oracle, "_CHAR_CACHE", ())),
        "memo.power_sum_entries": cached(getattr(oracle, "_power_sum_coefficients", None)),
        "memo.table_entries": sum(len(t.values) for t in tables),
        "memo.closed_families_entries": cached(getattr(families, "_closed_families", None)),
        "memo.tuple_types_entries": cached(getattr(families, "_closed_tuple_types", None)),
    }


# ---------------------------------------------------------------------------
# Aggregation (runs in run.py, after the sessions).


def _totals(spans: list[list]) -> tuple[dict, dict, dict, dict]:
    """Inclusive time (outermost span of each name only), self time, span
    counts and summed counts, per span name."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[2] >= 0:
            child_time[s[2]] += s[4] - s[3]
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, int]] = {}
    for i, (name, _req, parent, t0, t1, cnt) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (t1 - t0) - child_time[i]
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][2]
        if nested:
            continue
        inclusive[name] = inclusive.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        if cnt:
            bucket = counts.setdefault(name, {})
            for key, value in cnt.items():
                bucket[key] = bucket.get(key, 0) + value
    return inclusive, self_time, calls, counts


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced session.

    ``processes`` holds one dump per traced process (the session worker and,
    on the CLI workload, every CLI child): its spans plus side figures.
    """
    inc: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, int]] = {}
    memo: dict[str, int] = {}
    startups = []
    stdout_bytes = 0
    table_bytes = 0
    warnings = 0
    for proc in processes:
        i, s, c, k = _totals(proc["spans"])
        for src, dst in ((i, inc), (s, own), (c, calls)):
            for name, value in src.items():
                dst[name] = dst.get(name, 0) + value
        for name, bucket in k.items():
            into = counts.setdefault(name, {})
            for key, value in bucket.items():
                into[key] = into.get(key, 0) + value
        for name, value in proc.get("memo", {}).items():
            memo[name] = max(memo.get(name, 0), value)
        if "startup_s" in proc:
            startups.append(proc["startup_s"])
        stdout_bytes += proc.get("stdout_bytes", 0)
        table_bytes = max(table_bytes, proc.get("table_bytes", 0))
        warnings += proc.get("guard_warnings", 0)

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    candidates = count("families.minimal_types", "candidates")
    out = count("families.minimal_types", "out")
    return {
        "families.ideals_s": inc.get("families.ideals", 0.0),
        "families.ideals": count("families.ideals", "ideals"),
        "families.product_s": own.get("families.minimal_types", 0.0),
        "families.candidate_tuples": candidates,
        "families.minimal_types": out,
        "families.minimal_frac": out / candidates if candidates else 0.0,
        "families.is_minimal_s": inc.get("families.is_minimal", 0.0),
        "families.is_minimal_calls": calls.get("families.is_minimal", 0),
        "partitions.filter_s": inc.get("partitions.filter", 0.0),
        "partitions.filter_calls": calls.get("partitions.filter", 0),
        "partitions.filter_in": count("partitions.filter", "in"),
        "partitions.filter_out": count("partitions.filter", "out"),
        "constituents.report_s": inc.get("constituents.report", 0.0),
        "constituents.self_s": own.get("constituents.report", 0.0),
        "constituents.reports": calls.get("constituents.report", 0),
        "constituents.labels": count("constituents.report", "labels"),
        "oracle.expand_s": inc.get("oracle.expand", 0.0),
        "oracle.char_s": inc.get("oracle.char", 0.0),
        "oracle.char_values": calls.get("oracle.char", 0),
        "oracle.assembly_s": own.get("oracle.expand", 0.0),
        "oracle.coeff_s": inc.get("oracle.coeff", 0.0),
        "oracle.coeff_calls": calls.get("oracle.coeff", 0),
        "oracle.guard_warnings": warnings,
        "oracle.table_load_s": inc.get("oracle.table_load", 0.0),
        "oracle.table_save_s": inc.get("oracle.table_save", 0.0),
        "oracle.table_bytes": table_bytes,
        **{name: memo.get(name, 0) for name in LAYER_METRICS if name.startswith("memo.")},
        "cli.main_s": inc.get("cli.main", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "cli.stdout_bytes": stdout_bytes,
        "special.s": inc.get("special", 0.0),
    }


def spawn_env(env: dict) -> dict:
    """Environment for a child whose start-up time is to be measured."""
    return {**env, SPAWN_NS_ENV: str(monotonic_ns())}


def startup_since_spawn() -> float | None:
    spawned = os.environ.get(SPAWN_NS_ENV)
    return (monotonic_ns() - int(spawned)) / 1e9 if spawned else None
