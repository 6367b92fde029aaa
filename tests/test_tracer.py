"""The benchmark's tracer still sees every layer of a traced pipeline.

``perfbench/tracer.py`` wraps module attributes after importing the CLI, so
these checks fail if the CLI captures a report function or a store loader,
or ``vulnmap.match`` captures ``best_match`` or ``build_indexes``, at import
time instead of looking it up when it calls it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
PERFBENCH = ROOT / "perfbench"


def traced(tmp_path, *argv):
    trace = tmp_path / f"trace-{argv[0]}.json"
    vulnmap(str(PERFBENCH / "tracer.py"), str(trace), *argv)
    return json.loads(trace.read_text(encoding="utf-8"))


def vulnmap(*argv):
    """Run ``python ARGV`` with ``src`` and ``perfbench`` on the path; assert it exits 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    proc = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_report_spans_every_report_and_loads_packages_once(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from expect import REPORT_FUNCTIONS

    ws = str(tmp_path / "ws")
    traced(tmp_path, "ingest", "--workspace", ws,
           "--packages", str(FIXTURES / "packages_small.csv"),
           "--cves", str(FIXTURES / "cves_small.ndjson"))
    traced(tmp_path, "map", "--workspace", ws)
    trace = traced(tmp_path, "report", "--workspace", ws, "--report", "all")
    spans = {span["name"] for span in trace["spans"]}
    assert {f"report.{name}" for name in (*REPORT_FUNCTIONS, "export_report")} <= spans
    assert trace["counts"]["store.load_packages"] == 1


def test_traced_map_times_fuzzy_scoring(tmp_path):
    ws = str(tmp_path / "ws")
    traced(tmp_path, "ingest", "--workspace", ws,
           "--packages", str(FIXTURES / "packages_small.csv"),
           "--cves", str(FIXTURES / "cves_small.ndjson"))
    trace = traced(tmp_path, "map", "--workspace", ws)
    names = [span["name"] for span in trace["spans"]]
    assert "match.fuzzy" in names
    assert trace["counts"].get("fuzzy.best_match", 0) >= 1
    # One package view per strategy, each built through the wrapped match.build_indexes.
    assert names.count("ingest.build_indexes") == 4


def test_traced_map_writes_what_an_untraced_map_writes(tmp_path):
    # The tracer calls run_all once per strategy with the same packages, so
    # each pass must read the packages afresh.
    written = {}
    for how in ("traced", "untraced"):
        ws = tmp_path / how
        vulnmap("-m", "vulnmap", "ingest", "--workspace", str(ws),
                "--packages", str(FIXTURES / "packages_oracle.csv"),
                "--cves", str(FIXTURES / "cves_oracle.ndjson"))
        if how == "traced":
            traced(tmp_path, "map", "--workspace", str(ws))
        else:
            vulnmap("-m", "vulnmap", "map", "--workspace", str(ws))
        written[how] = {p.name: p.read_bytes() for p in sorted(ws.glob("mappings*"))}
    assert written["traced"] == written["untraced"]
    assert len(written["traced"]) == 5  # four mapping files and their manifest
    assert all(written["traced"].values())
