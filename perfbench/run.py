"""Benchmark of the vulnmap pipeline on seeded, dump-shaped inputs.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-dump --seed 1 --seconds 35 --trace 0

Each run generates the workload's inputs from the seed, then repeats the
pipeline a user runs, ``python -m vulnmap ingest``, ``map`` and ``report
--report all``, each as its own process, one at a time (a closed loop with
one client), until ``--seconds`` have passed. Every repetition starts from an
empty workspace, and its mapping and report files are compared with the
expected outputs computed by ``expect.py``.

``--trace 0`` reports the end-to-end metrics: the median wall time and peak
RSS of each command over the repetitions. The times are scaled by the speed
of the CPU during the run, measured by timing ``calibrate.py`` before each
command. ``--trace 1`` alternates an untraced pipeline with one run through
``tracer.py`` and reports per-layer busy times and counts (medians over the
traced repetitions), and the tracing overhead. The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import expect
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
COMMANDS = ("ingest", "map", "report")
MIN_REPETITIONS = 3
# Reported times are wall times scaled as if a calibrate.py process had
# taken this long (see README, "Calibration").
REFERENCE_CALIBRATION_S = 0.1
# Commands still running this long after the run started are killed and
# count as failed, so that a run always ends well within three minutes.
HARD_LIMIT_S = 150

WORKLOADS = {
    # Every entry names one platform and asks for a package name or a word
    # no package has: few candidates per query, so the substring candidate
    # scan over each platform's whole pool leads map, not similarity scoring.
    "fuzzy-pool": gen.Spec(
        packages=12000, versions_per_package=0.3, cves=200, cpes_per_cve=4,
        products_per_cve=(1, 2, 3), product_mix=("name", "fresh"), stems=5000,
        hinted_share=1.0, compact_array=False),
    # Every entry names one platform and asks for 4-6 letter name fragments:
    # many candidates per query, so similarity scoring (best_match) leads map,
    # and the substring candidate scan over each platform's pool follows.
    "fuzzy-score": gen.Spec(
        packages=6000, versions_per_package=0.3, cves=150, cpes_per_cve=4,
        products_per_cve=(1, 2), product_mix=("stem",), stems=120,
        hinted_share=1.0, compact_array=False),
    # A compact one-line CVE array with 40 CPEs per entry and a versions dump:
    # ingest, CPE parsing, the store and the reports do the work; almost no
    # entry names a platform, so fuzzy matching is nearly idle.
    "bulk-dump": gen.Spec(
        packages=8000, versions_per_package=2.0, cves=400, cpes_per_cve=40,
        products_per_cve=(1, 2, 3), product_mix=("name", "fresh"), stems=5000,
        hinted_share=0.005, compact_array=True),
}


class Run:
    """One workload instance: its inputs, expected outputs and scratch directory."""

    def __init__(self, workload: str, seed: int, launcher: subprocess.Popen):
        self.launcher = launcher
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.corpus = gen.generate(workload, WORKLOADS[workload], seed, self.dir / "inputs")
        self.mappings = expect.mappings(self.corpus)
        self.reports = expect.reports(self.corpus, self.mappings)
        self.cves_bytes = self.corpus.cves_path.stat().st_size
        pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
        self.attempted = 0
        self.calibration: list[float] = []  # seconds of each calibrate.py process
        self.failed = 0

    def argv(self, command: str, workspace: Path) -> list[str]:
        args = [command, "--workspace", str(workspace)]
        if command == "ingest":
            c = self.corpus
            args += ["--packages", str(c.packages_path), "--versions", str(c.versions_path),
                     "--cves", str(c.cves_path)]
        elif command == "report":
            args += ["--report", "all"]
        return args

    def child(self, argv: list[str], log: Path) -> tuple[float, float, int]:
        """Wall seconds, peak RSS in MB and exit code of one command."""
        request = {"argv": argv, "cwd": str(ROOT), "env": self.env, "log": str(log),
                   "timeout": max(0.1, self.deadline - time.perf_counter())}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        seconds, max_rss_kib, code = json.loads(self.launcher.stdout.readline())
        return seconds, max_rss_kib / 1024, code

    def calibrate(self) -> None:
        """Time one run of calibrate.py, started the way the commands are."""
        log = self.dir / "calibrate.log"
        seconds, _, code = self.child([sys.executable, str(HERE / "calibrate.py")], log)
        if code != 0:
            raise RuntimeError(f"calibrate.py exited with {code}: {log.read_text()[-2000:]}")
        self.calibration.append(seconds)

    def pipeline(self, traced: bool) -> dict[str, tuple[float, float]]:
        """Run the three commands on a fresh workspace and check their outputs."""
        workspace = self.dir / ("ws-traced" if traced else "ws")
        shutil.rmtree(workspace, ignore_errors=True)
        measured = {}
        for command in COMMANDS:
            log = self.dir / f"{command}.log"
            prefix = [sys.executable, "-m", "vulnmap"]
            if traced:
                prefix = [sys.executable, str(HERE / "tracer.py"),
                          str(self.dir / f"trace-{command}.json")]
            else:
                self.calibrate()
            seconds, rss, code = self.child(prefix + self.argv(command, workspace), log)
            ok = code == 0 and self.outputs_match(command, workspace)
            self.attempted += 1
            if not ok:
                self.failed += 1
                tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
                print(f"FAILED {command} (exit {code}):\n{tail}", file=sys.stderr)
            measured[command] = (seconds, rss)
        return measured

    def outputs_match(self, command: str, workspace: Path) -> bool:
        if command == "map":
            return all(_records(workspace / f"mappings_{key}.ndjson") == expected
                       for key, expected in self.mappings.items())
        if command == "report":
            return all((workspace / name).is_file()
                       and (workspace / name).read_bytes() == text.encode("utf-8")
                       for name, text in self.reports.items())
        return True

    def traces(self) -> dict[str, dict]:
        return {c: json.loads((self.dir / f"trace-{c}.json").read_text(encoding="utf-8"))
                for c in COMMANDS}


def _records(path: Path) -> list[tuple] | None:
    if not path.is_file():
        return None
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            evidence = doc["evidence"]
            records.append((doc["strategy"], doc["cve"], doc["package"], doc["platform"],
                            doc["confidence"], evidence["kind"], tuple(evidence["payload"])))
    return sorted(records)


def _span_seconds(trace: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in trace["spans"] if s["name"] == name)


def layer_metrics(traces: dict[str, dict]) -> dict[str, float]:
    """Per-layer figures of one traced pipeline (all three commands)."""
    def busy(name):
        return sum(t["busy"].get(name, 0.0) for t in traces.values())

    def count(name):
        return sum(t["counts"].get(name, 0) for t in traces.values())

    def spans(name):
        return sum(_span_seconds(t, name) for t in traces.values())

    loaders = ("ingest.load_packages", "ingest.load_versions", "ingest.load_cves")
    m = {
        "ingest.load_packages_s": busy("ingest.load_packages"),
        "ingest.load_packages_rows": count("ingest.load_packages"),
        "ingest.load_versions_s": busy("ingest.load_versions"),
        "ingest.load_versions_rows": count("ingest.load_versions"),
        "ingest.load_cves_self_s": busy("ingest.load_cves") - busy("cpe.parse_cpe23"),
        "ingest.load_cves_bytes": count("ingest.load_cves_bytes"),
        "ingest.load_cves_entries": count("ingest.load_cves"),
        "ingest.build_indexes_s": spans("ingest.build_indexes"),
        "cpe.parse_cpe23_s": busy("cpe.parse_cpe23"),
        "cpe.parse_cpe23_calls": count("cpe.parse_cpe23"),
        "store.write_ndjson_self_s": spans("store.write_ndjson") - sum(map(busy, loaders)),
        "store.bytes_written": count("store.bytes_written"),
    }
    for kind in ("packages", "cves", "versions", "mappings"):
        m[f"store.load_{kind}_s"] = spans(f"store.load_{kind}")
    for kind in ("packages", "cves"):
        m[f"store.load_{kind}_calls"] = traces["report"]["counts"].get(f"store.load_{kind}", 0)
    for key in expect.STRATEGY_VALUES:
        m[f"match.{key}_s"] = spans(f"match.{key}")
        m[f"match.{key}_results"] = count(f"match.{key}_results")
        m[f"match.{key}_mapped_share"] = (count(f"match.{key}_mapped")
                                          / max(1, count(f"match.{key}_total")))
    calls = count("fuzzy.best_match")
    m["fuzzy.best_match_s"] = busy("fuzzy.best_match")
    m["match.fuzzy_scan_s"] = m["match.fuzzy_s"] - m["fuzzy.best_match_s"]
    m["fuzzy.best_match_calls"] = calls
    m["fuzzy.candidates"] = count("fuzzy.candidates")
    m["fuzzy.hits_per_call"] = m["match.fuzzy_results"] / max(1, calls)
    for name in expect.REPORT_FUNCTIONS:
        m[f"report.{name}_s"] = spans(f"report.{name}")
    m["report.export_s"] = spans("report.export_report")
    for command in COMMANDS:
        m[f"cli.{command}_s"] = spans(f"cli.{command}")
    return m


def self_times(trace: dict) -> dict[str, float]:
    """Seconds each layer spent in one command, less the traced layers it called.

    Loaders count their busy time (in ``next()``), not their lifetime;
    parse_cpe23 and best_match are summed per call instead of kept as spans.
    The command span's own entry is the time outside every traced layer.
    """
    spans = trace["spans"]
    seconds = [s.get("busy", s["end"] - s["start"]) for s in spans]
    out: dict[str, float] = {}
    for span, own in zip(spans, seconds):
        out[span["name"]] = out.get(span["name"], 0.0) + own
        if span["parent"] is not None:
            parent = spans[span["parent"]]["name"]
            out[parent] = out.get(parent, 0.0) - own
    for name, caller in (("cpe.parse_cpe23", "ingest.load_cves"), ("fuzzy.best_match", "match.fuzzy")):
        if name in trace["busy"]:
            out[name] = trace["busy"][name]
            out[caller] -= out[name]
    return out


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_share", "_per_call")):
        return "share"
    if name.endswith(("_bytes", "_written")):
        return "bytes"
    return "count"


def measure(run: Run, seconds: float, traced: bool):
    """Repeat pipelines until ``seconds`` have passed; return (metrics, notes)."""
    samples, traced_samples, layers, imported = [], [], [], []
    breakdown: dict[str, list[dict]] = {c: [] for c in COMMANDS}
    start = time.perf_counter()
    minimum = 1 if traced else MIN_REPETITIONS
    while len(samples) < minimum or time.perf_counter() - start < seconds:
        samples.append(run.pipeline(traced=False))
        if traced:
            traced_samples.append(run.pipeline(traced=True))
            traces = run.traces()
            layers.append(layer_metrics(traces))
            imported.append({c: traces[c]["busy"]["cli.import"] for c in COMMANDS})
            for command in COMMANDS:
                breakdown[command].append(self_times(traces[command]))

    def wall(sample):
        return sum(sample[c][0] for c in COMMANDS)

    notes = [f"repetitions {len(samples)}"]
    if traced:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace_overhead_s"] = (statistics.median(map(wall, traced_samples))
                                       - statistics.median(map(wall, samples)))
        for command in COMMANDS:
            process = statistics.median(s[command][0] for s in traced_samples)
            imports = statistics.median(t[command] for t in imported)
            span = metrics[f"cli.{command}_s"]
            notes.append(f"{command}: traced process {process:.3f} s, vulnmap imports "
                         f"{imports:.3f} s, cli.{command} span {span:.3f} s, of which:")
            layer_seconds = {name: statistics.median(b.get(name, 0.0) for b in breakdown[command])
                             for name in breakdown[command][0]}
            for name, own in sorted(layer_seconds.items(), key=lambda kv: -kv[1]):
                label = "outside traced layers" if name == f"cli.{command}" else name
                notes.append(f"  {label} {own:.3f} s ({100 * own / span:.1f}%)")
        return metrics, notes
    # Times in reference seconds: wall seconds scaled by how much slower the
    # calibration process ran in this run than on the reference CPU.
    calibration = statistics.median(run.calibration)
    speed = REFERENCE_CALIBRATION_S / calibration
    notes.append(f"calibration {calibration:.4f} s (median of {len(run.calibration)}): "
                 f"times scaled by {speed:.4f}")
    for command in COMMANDS:
        times = sorted(s[command][0] for s in samples)
        notes.append(f"{command} wall: " + " ".join(f"{t:.3f}" for t in times) + " s")
    metrics = {}
    for i, command in enumerate(COMMANDS):
        name = ("setup", "map", "report")[i]
        metrics[f"{name}_s"] = speed * statistics.median(s[command][0] for s in samples)
        metrics[f"{name}_rss_mb"] = statistics.median(s[command][1] for s in samples)
    metrics["pipeline_s"] = metrics["setup_s"] + metrics["map_s"] + metrics["report_s"]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vulnmap" / "cli.py").is_file():
        print(f"perfbench: no vulnmap sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    launcher = subprocess.Popen([sys.executable, str(HERE / "launch.py")], cwd=ROOT,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        run = Run(args.workload, args.seed, launcher)
        try:
            # Compile the package once, so that no timed command pays for it.
            subprocess.run([sys.executable, "-m", "vulnmap", "--help"], cwd=ROOT, env=run.env,
                           stdout=subprocess.DEVNULL, check=False)
            metrics, notes = measure(run, args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
    finally:
        launcher.stdin.close()
        launcher.wait()

    c = run.corpus
    print(f"workload {args.workload}, seed {args.seed}: {len(c.packages)} packages, "
          f"{len(c.versions)} versions, {len(c.cves)} CVEs, {c.cves_path.name} "
          f"{run.cves_bytes} bytes")
    for note in notes:
        print(note)
    result = {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit(name)}")
    print(f"failed_ops {run.failed / run.attempted:.6g} share "
          f"({run.failed} of {run.attempted} commands)")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
