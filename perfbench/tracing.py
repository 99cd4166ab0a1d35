"""Span tracing of driftray's layers, recorded from outside the engine.

``Tracer.install()`` swaps each traced public function (or method) for a
wrapper that records one span per call and calls the original; the engine
itself is not edited.  ``uninstall()`` puts the originals back, so an
untraced op runs exactly the code a user runs.  Spans are kept in memory
and written once, by ``write``, when the benchmark ends.

A span is ``(id, name, start, end, parent, op, thread)``.  The parent is
the innermost open span of the same thread, or the op's root span when the
call happens on a helper thread (the uniqueness pass runs on one).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    info: dict | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


# (span name, module, attribute path) — every public call the trace times.
# ``ray.data`` entries catch the lazy reads and the window-discovery
# ``unique``; everything else is a driftray function or method.
TRACED = [
    ("sources.footer_schema_groups", "driftray.sources", "footer_schema_groups"),
    ("schema_drift.record_and_diff", "driftray.schema_drift", "record_and_diff"),
    ("ops.zonemap.parquet_zone_map", "driftray.ops.zonemap", "parquet_zone_map"),
    ("ops.zonemap.pruned_read", "driftray.ops.zonemap", "pruned_read"),
    ("ray.data.read_parquet", "ray.data", "read_parquet"),
    ("ray.data.Dataset.unique", "ray.data", "Dataset.unique"),
    ("ray.put", "ray", "put"),
    ("pipeline.build_membership", "driftray.pipeline", "build_membership"),
    ("pipeline.infer_hist_edges", "driftray.pipeline", "infer_hist_edges"),
    ("pipeline.validate_dataset", "driftray.pipeline", "validate_dataset"),
    ("pipeline.uniqueness_violations", "driftray.pipeline", "uniqueness_violations"),
    ("ops.relational.duplicate_values_sorted", "driftray.ops.relational",
     "duplicate_values_sorted"),
    ("pipeline.merge_findings", "driftray.pipeline", "merge_findings"),
    ("pipeline.drift_report", "driftray.pipeline", "drift_report"),
    ("pipeline.write_window_result", "driftray.pipeline", "write_window_result"),
    ("pipeline.aggregate_profiles", "driftray.pipeline", "aggregate_profiles"),
    ("alerts.AlertManager.evaluate", "driftray.alerts", "AlertManager.evaluate"),
    ("drift.UnusualRatioReplay.feed", "driftray.drift", "UnusualRatioReplay.feed"),
    ("drift.UnusualRatioReplay.finish", "driftray.drift", "UnusualRatioReplay.finish"),
]


def _info(name, args, kwargs, result):
    if name == "ray.data.read_parquet":
        cols = kwargs.get("columns")
        return {"dataset": result, "path": args[0] if args else kwargs.get("paths"),
                "columns": list(cols) if cols else None}
    if name == "ops.zonemap.pruned_read":
        return {"dataset": result}
    if name == "ray.put":
        from driftray.bloom import BloomFilter

        return {"membership": isinstance(args[0], (BloomFilter, set, frozenset))}
    if name == "ops.relational.duplicate_values_sorted":
        return {"candidates": int(len(result))}
    if name == "pipeline.uniqueness_violations":
        return {"duplicate_keys": int(result[0].num_rows), "extra": int(result[1])}
    if name == "pipeline.write_window_result":
        return {"out_dir": args[0], "window_id": int(args[1].window_id)}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._op: int | None = None
        self._op_root: int | None = None
        self.roots: dict[int, int] = {}   # op id → its root span id
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------
    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name: str) -> tuple[int, int | None, float]:
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else self._op_root
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, name, t0, info=None) -> None:
        t1 = time.perf_counter()
        self._stack().pop()
        span = Span(sid, name, t0, t1, parent, self._op, threading.get_ident(), info)
        with self._lock:
            self.spans.append(span)

    def op(self, op_id: int, name: str = "op"):
        """Context manager for one benchmark op: its root span."""
        tracer = self

        class _Op:
            def __enter__(self):
                tracer._op = op_id
                sid, parent, t0 = tracer._open(name)
                tracer._op_root = tracer.roots[op_id] = sid
                self.state = (sid, parent, t0)
                return self

            def __exit__(self, *exc):
                sid, parent, t0 = self.state
                tracer._close(sid, parent, name, t0)
                tracer._op = tracer._op_root = None
                return False

        return _Op()

    # -- patching -----------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, t0 = tracer._open(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                info = _info(name, args, kwargs, result)
                if name == "ops.zonemap.parquet_zone_map":
                    # the zone map is a lazy dataset: its work runs in the
                    # caller's ``to_pandas``
                    result.to_pandas = tracer._wrap("zone_map.execute", result.to_pandas)
                return result
            finally:
                tracer._close(sid, parent, name, t0, info)

        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        for name, module, attr in TRACED:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for p in path:
                owner = getattr(owner, p)
            self._saved.append((owner, leaf, owner.__dict__.get(leaf)))
            setattr(owner, leaf, self._wrap(name, getattr(owner, leaf)))

    def uninstall(self) -> None:
        for owner, leaf, orig in reversed(self._saved):
            if orig is None:
                delattr(owner, leaf)   # was inherited: expose the base's again
            else:
                setattr(owner, leaf, orig)
        self._saved.clear()

    # -- queries ------------------------------------------------------------
    def op_spans(self, op_id: int) -> list[Span]:
        return [s for s in self.spans if s.op == op_id]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "thread": s.thread}) + "\n")


def top_level(spans: list[Span], name: str) -> list[Span]:
    """Spans of ``name`` not nested in another span of the same name
    (``read_parquet`` inside ``infer_hist_edges`` is counted; a traced
    function calling itself through another traced layer is not doubled)."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent)
        nested = False
        while p is not None:
            if p.name == name:
                nested = True
                break
            p = by_id.get(p.parent)
        if not nested:
            out.append(s)
    return out


def total(spans: list[Span], *names: str) -> float:
    return sum(s.dur for n in names for s in top_level(spans, n))


def stage_sums(spans: list[Span], root: int, dim_paths: set[str],
               window_column: str = "window_id") -> dict[str, float]:
    """Per-stage span sums for one ``run_validation`` call made directly
    by the op whose root span is ``root``, keyed like the ``stages_s`` of
    its ``run_lineage.jsonl`` line.  ``validate_chunks`` is the engine's
    residual (everything after the serial stages): pruned reads, kernel
    passes, window writes and alerting."""
    direct = [s for s in spans if s.parent == root]

    def tot(pred) -> float:
        return round(sum(s.dur for s in direct if pred(s)), 4)

    def read_of(s, want) -> bool:
        return s.name == "ray.data.read_parquet" and want(s.info or {})

    return {
        "schema_preflight": tot(lambda s: s.name in (
            "sources.footer_schema_groups", "schema_drift.record_and_diff",
            "ops.zonemap.parquet_zone_map", "zone_map.execute")),
        "membership": tot(lambda s: s.name == "pipeline.build_membership"
                          or (s.name == "ray.put" and (s.info or {}).get("membership"))
                          or read_of(s, lambda i: i.get("path") in dim_paths)),
        "window_discovery": tot(lambda s: s.name == "ray.data.Dataset.unique"
                                or read_of(s, lambda i: i.get("columns") == [window_column])),
        "hist_edges": tot(lambda s: s.name == "pipeline.infer_hist_edges"),
        "uniqueness_overlapped": tot(lambda s: s.name == "pipeline.uniqueness_violations"),
        "validate_chunks": tot(lambda s: s.name in (
            "ops.zonemap.pruned_read", "pipeline.validate_dataset",
            "pipeline.write_window_result", "alerts.AlertManager.evaluate"))
        + round(uniqueness_wait(direct), 4),
    }


def uniqueness_wait(direct: list[Span]) -> float:
    """Time the op's main thread sat waiting for the concurrent uniqueness
    pass after its last window write — ``run_validation`` counts that wait
    in its ``validate_chunks`` residual."""
    uniq = [s for s in direct if s.name == "pipeline.uniqueness_violations"]
    writes = [s for s in direct if s.name == "pipeline.write_window_result"]
    if not uniq or not writes:
        return 0.0
    return max(0.0, max(s.end for s in uniq) - max(s.end for s in writes))
