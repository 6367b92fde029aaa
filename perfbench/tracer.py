"""Run one vulnmap CLI command in-process with timing wrappers on its layers.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json map --workspace WS

The wrappers replace the public module attributes that the CLI looks up at
call time; the program's source is not touched. Spans (name, start, end,
parent) and per-layer busy times and counts are kept in memory and written
to TRACE.json when the command returns. The exit code is the command's.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

IMPORT_START = time.perf_counter()
from vulnmap import cli, ingest, match, report, store  # noqa: E402
IMPORT_S = time.perf_counter() - IMPORT_START

from expect import REPORT_FUNCTIONS  # noqa: E402



class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.spans: list[dict] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.local = threading.local()

    def current(self) -> int | None:
        """Innermost open span of this thread; the root span in worker threads."""
        stack = getattr(self.local, "stack", None)
        if stack:
            return stack[-1]
        return 0 if self.spans else None

    def record(self, name: str, start: float, end: float, parent: int | None, **extra) -> int:
        with self.lock:
            self.spans.append({"id": len(self.spans), "name": name, "parent": parent,
                               "start": start, "end": end, **extra})
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        sid = self.record(name, time.perf_counter(), None, self.current())
        self.local.__dict__.setdefault("stack", []).append(sid)
        try:
            yield
        finally:
            self.local.stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def add(self, name: str, seconds: float = 0.0, count: int = 1) -> None:
        with self.lock:
            self.busy[name] += seconds
            self.counts[name] += count

    def dump(self, path: str, exit_code: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"exit": exit_code, "spans": self.spans, "busy": self.busy,
                       "counts": self.counts}, fh)


def spanned(tracer: Tracer, name: str, fn, count: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count:
            tracer.add(name)
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def accumulated(tracer: Tracer, name: str, fn):
    """Sum call time without a span per call (for calls made thousands of times)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add(name, time.perf_counter() - t0)
    return wrapper


def loader(tracer: Tracer, name: str, fn, source_bytes: bool = False):
    """Time a streaming loader per ``next()``; the consumer's time is not counted."""
    @functools.wraps(fn)
    def wrapper(source, *args, **kwargs):
        if source_bytes and hasattr(source, "fileno"):
            tracer.add(f"{name}_bytes", 0.0, os.fstat(source.fileno()).st_size)
        items = fn(source, *args, **kwargs)

        def timed():
            parent, start = tracer.current(), time.perf_counter()
            busy, rows = 0.0, 0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(items)
                    except StopIteration:
                        busy += time.perf_counter() - t0
                        return
                    busy += time.perf_counter() - t0
                    rows += 1
                    yield item
            finally:
                tracer.record(name, start, time.perf_counter(), parent, busy=busy)
                tracer.add(name, busy, rows)
        return timed()
    return wrapper


def install(tracer: Tracer) -> None:
    ingest.load_packages = loader(tracer, "ingest.load_packages", ingest.load_packages)
    ingest.load_versions = loader(tracer, "ingest.load_versions", ingest.load_versions)
    ingest.load_cves = loader(tracer, "ingest.load_cves", ingest.load_cves, source_bytes=True)
    ingest.parse_cpe23 = accumulated(tracer, "cpe.parse_cpe23", ingest.parse_cpe23)

    write_ndjson = store.Workspace.write_ndjson

    def traced_write(self, path, docs):
        with tracer.span("store.write_ndjson"):
            written = write_ndjson(self, path, docs)
        tracer.add("store.bytes_written", 0.0, os.path.getsize(path))
        return written
    store.Workspace.write_ndjson = traced_write
    for kind in ("packages", "versions", "cves", "mappings"):
        method = f"load_{kind}"
        setattr(store.Workspace, method,
                spanned(tracer, f"store.{method}", getattr(store.Workspace, method), count=True))

    match.build_indexes = spanned(tracer, "ingest.build_indexes", match.build_indexes)
    best_match = match.best_match

    # Strategy threads wait on the interpreter lock; their CPU time is the busy time.
    def traced_best_match(query, candidates, cutoff):
        t0 = time.thread_time()
        try:
            return best_match(query, candidates, cutoff)
        finally:
            tracer.add("fuzzy.best_match", time.thread_time() - t0)
            tracer.add("fuzzy.candidates", 0.0, len(candidates))
    match.best_match = traced_best_match

    run_all = match.run_all

    def traced_run_all(*args, **kwargs):
        """The real run_all, called once per strategy so each gets its own span."""
        bound = inspect.signature(run_all).bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = bound.arguments
        if arguments.get("indexes", False) is None:
            arguments["indexes"] = match.build_indexes(arguments["packages"], arguments["cves"])
        keys = tuple(arguments["strategies"])
        results, tallies, outcome = {}, {}, None
        for key in keys:
            arguments["strategies"] = (key,)
            with tracer.span(f"match.{key}"):
                outcome = run_all(*bound.args, **bound.kwargs)
            results.update(outcome.results)
            tallies.update(outcome.tallies)
            tally = outcome.tallies.get(key, {})
            tracer.add(f"match.{key}_results", 0.0, len(outcome.results[key]))
            tracer.add(f"match.{key}_mapped", 0.0, tally.get("mapped", 0))
            tracer.add(f"match.{key}_total", 0.0, tally.get("total_cves", 0))
        if outcome is None:
            return run_all(*bound.args, **bound.kwargs)
        outcome.results, outcome.tallies = results, tallies
        return outcome
    cli.run_all = traced_run_all

    for name in REPORT_FUNCTIONS + ("export_report",):
        setattr(report, name, spanned(tracer, f"report.{name}", getattr(report, name)))


def main(argv: list[str]) -> int:
    trace_path, command = argv[0], argv[1:]
    tracer = Tracer()
    tracer.add("cli.import", IMPORT_S)
    install(tracer)
    code = 1
    try:
        with tracer.span(f"cli.{command[0]}"):
            code = cli.main(command)
    finally:
        tracer.dump(trace_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
