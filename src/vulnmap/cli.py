"""Command-line pipeline: vulnmap ingest | map | report over a workspace."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import ingest as ing
from . import report as rep
from . import store
from .match import STRATEGY_KEYS, LookupConfig, default_lookup_config, load_lookup_config, run_all

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2


class CommandError(Exception):
    """A command failure; ``main`` prints it as ``vulnmap: error: ...`` and exits 1."""


class ReportSpec(NamedTuple):
    snapshot: str  # the store snapshot the builder reads: a key of SNAPSHOTS
    build: Callable  # (snapshot, workspace, top_k or None) -> rep.Report
    needs: tuple[str, ...] = ()  # strategy keys; at least one mapping file must exist


# Loaders and report functions are looked up when called, never captured here,
# so wrappers installed on ``store.Workspace`` or ``vulnmap.report`` apply.
SNAPSHOTS: dict[str, Callable] = {
    "packages": lambda ws: rep.package_counts(ws.load_packages()),  # one pass, no list
    "versions": lambda ws: ws.load_versions(),  # its counts per (platform, year)
    "cves": lambda ws: {c.cve_id: c.year for c in ws.load_cves()},  # no report reads more
    "mappings": lambda ws: {
        key: ws.load_mappings(key) for key in STRATEGY_KEYS if ws.mappings_path(key).exists()
    },
}

# Reports that read the same snapshot are adjacent, so "all" loads each once.
_SHARE_K, _RANK_K = rep.DEFAULT_TOP_K_SHARE, rep.DEFAULT_TOP_K_RANKING
REPORTS: dict[str, ReportSpec] = {
    "platform-share": ReportSpec(
        "packages", lambda pkgs, ws, k: rep.platform_project_share(pkgs, k or _SHARE_K)),
    "license-distribution": ReportSpec(
        "packages", lambda pkgs, ws, k: rep.license_distribution(pkgs, k or _SHARE_K)),
    "top-repo-links": ReportSpec(
        "packages", lambda pkgs, ws, k: rep.top_repo_links(pkgs, k or _RANK_K)),
    "versions-per-year": ReportSpec(
        "versions", lambda versions, ws, k: rep.versions_per_year(versions)),
    "cve-per-year": ReportSpec(
        "cves", lambda years, ws, k: rep.cve_per_year(years)),
    "mapped-cve-per-year": ReportSpec(
        "cves", lambda years, ws, k: rep.mapped_cve_per_year(ws.load_mappings("strict"), years),
        needs=("strict",)),
    "vulnerable-packages": ReportSpec(
        "mappings", lambda mappings, ws, k: rep.vulnerable_package_count(mappings, k or _RANK_K),
        needs=STRATEGY_KEYS),
}
ALL_REPORTS = tuple(REPORTS)
REPORT_FORMATS = ("csv", "json")


def _fail(message: str, code: int = EXIT_ERROR) -> int:
    print(f"vulnmap: error: {message}", file=sys.stderr)
    return code


def _emit(obj: dict) -> int:
    try:
        print(json.dumps(obj, ensure_ascii=False, sort_keys=True), flush=True)
    except BrokenPipeError:
        # The reader has gone; point stdout at devnull so the flush at exit
        # cannot raise again (see the SIGPIPE note in the ``signal`` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    return EXIT_OK


def _cutoff_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cutoff must be a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"cutoff must be within [0, 1], got {value}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _lookup(args: argparse.Namespace) -> LookupConfig:
    if args.lookup is None:
        return default_lookup_config()
    try:
        return load_lookup_config(args.lookup)
    except (OSError, ValueError) as exc:
        raise CommandError(f"invalid lookup config: {exc}") from None


def _load_cve_fields(path: Path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("the document must be a JSON object")
    for key, value in doc.items():
        if key not in ing.DEFAULT_CVE_FIELDS:
            raise ValueError(f"unknown field {key!r} (known: {', '.join(ing.DEFAULT_CVE_FIELDS)})")
        if not isinstance(value, str):
            raise ValueError(f"field {key!r} must name a string key, got {value!r}")
    return doc


def _require_store(workspace: store.Workspace) -> None:
    for path in (workspace.packages_path, workspace.cves_path, workspace.summary_path):
        if not path.exists():
            raise CommandError(
                f"workspace {workspace.root} has no {path.name}; run 'vulnmap ingest' first"
            )
    if workspace.read_summary().get("store_layout") != store.STORE_LAYOUT:
        raise CommandError(
            f"workspace {workspace.root} holds a store from another vulnmap version; "
            "run 'vulnmap ingest' again"
        )


def _selected_strategies(strategy: str, mode: str | None) -> tuple[str, ...]:
    if strategy == "all":
        return STRATEGY_KEYS
    if strategy != "repository":
        return (strategy,)
    return (f"repository_{mode}",) if mode else ("repository_all", "repository_first")


# ---------------------------------------------------------------------------
# commands: (parsed arguments, workspace) -> JSON summary; failures raise
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace, workspace: store.Workspace) -> dict:
    for label, path in (
        ("packages", args.packages),
        ("cves", args.cves),
        ("versions", args.versions),
        ("lookup", args.lookup),
        ("cve-fields", args.cve_fields),
    ):
        # Checked before lock() creates the workspace, so the message names the flag.
        if path is not None and (not path.exists() or path.is_dir()):
            raise CommandError(f"cannot read --{label} input: {path}")
    aliases = _lookup(args).platform_aliases
    try:
        field_map = None if args.cve_fields is None else _load_cve_fields(args.cve_fields)
    except (OSError, ValueError) as exc:
        raise CommandError(f"invalid --cve-fields file: {exc}") from None

    inputs = {"packages": args.packages, "versions": args.versions, "cves": args.cves}
    inputs = {flag: path for flag, path in inputs.items() if path is not None}
    # One CPU where os.sched_getaffinity is missing, as on macOS.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    from .units import stage_inputs  # only here: map and report never compile it
    # Every store file is written to .staging and moved in only once all inputs have loaded.
    with workspace.lock():
        with workspace.staging() as stage:
            summary = stage_inputs(inputs, stage, cpus, aliases, field_map)
            stage.write_summary(summary)
        # Only once the new store is in: the old mappings and reports describe the old store.
        stale = [workspace.mappings_path(key) for key in STRATEGY_KEYS] + [workspace.manifest_path]
        stale += [workspace.report_path(name, f) for name in ALL_REPORTS for f in REPORT_FORMATS]
        for path in stale:
            path.unlink(missing_ok=True)
    return summary


class _PackageStream:
    """The store's packages, read afresh on each iteration, so that no package list is held.

    ``run_all`` iterates it once; a caller that runs it once per strategy
    gets a new stream each time.
    """

    def __init__(self, workspace: store.Workspace):
        self.workspace = workspace

    def __iter__(self) -> Iterator[ing.PackageRecord]:
        return self.workspace.load_packages()


def cmd_map(args: argparse.Namespace, workspace: store.Workspace) -> dict:
    _require_store(workspace)
    lookup = _lookup(args).lookup
    with workspace.lock():
        cves = list(workspace.load_cves())
        summary = workspace.read_summary()
        outcome = run_all(
            _PackageStream(workspace),
            cves,
            lookup,
            cutoff=args.cutoff,
            strategies=_selected_strategies(args.strategy, args.mode),
            go_last_segment=args.go_last_segment,
        )
        outcome.tallies["malformed_cpes"] = summary.get("malformed_cpes", 0)
        # The counts of the mapping files this run leaves as they are.
        rows = {
            key: count for key, count in workspace.read_manifest().items()
            if key not in outcome.results and workspace.mappings_path(key).exists()
        }
        # Mapping files are written to .staging and moved in only once all are
        # written, the manifest of their row counts last.
        with workspace.staging() as stage:
            for strategy_key, results in outcome.results.items():
                rows[strategy_key] = stage.write_ndjson(
                    stage.mappings_path(strategy_key),
                    (store.mapping_to_dict(r) for r in results),
                )
            stage.write_manifest(rows)
    return {
        "tallies": outcome.tallies,
        "results": {k: len(v) for k, v in outcome.results.items()},
    }


def cmd_report(args: argparse.Namespace, workspace: store.Workspace) -> dict:
    _require_store(workspace)
    names = ALL_REPORTS if args.report == "all" else (args.report,)
    written = []
    with workspace.lock():
        summary = workspace.read_summary()
        for name in names:
            needs = REPORTS[name].needs
            if needs and not any(workspace.mappings_path(k).exists() for k in needs):
                raise CommandError(
                    f"report {name!r} needs mapping output "
                    f"{workspace.mappings_path(needs[0])}; run 'vulnmap map' first"
                )
        kind = data = None
        # Reports are written to .staging and moved in only once all are written.
        with workspace.staging() as stage:
            for name in names:
                spec = REPORTS[name]
                if spec.snapshot != kind:
                    data = None  # drop the previous snapshot before loading the next
                    kind, data = spec.snapshot, SNAPSHOTS[spec.snapshot](workspace)
                report = spec.build(data, workspace, args.top_k)
                report.metadata["inputs"] = summary.get("inputs", {})
                rep.export_report(report, args.format, stage.report_path(name, args.format))
                written.append(str(workspace.report_path(name, args.format)))
    return {"written": written}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulnmap",
        description="Map CVE entries to open-source packages and report frequency analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    lookup_help = "platform lookup configuration file (JSON)"

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workspace",
            default=os.environ.get("VULNMAP_WORKSPACE"),
            help="workspace directory (default: $VULNMAP_WORKSPACE)",
        )

    p_ingest = sub.add_parser("ingest", help="parse source dumps into the workspace store")
    add_common(p_ingest)
    p_ingest.add_argument("--lookup", type=Path, help=lookup_help)
    p_ingest.add_argument("--packages", type=Path, required=True,
                          help="package metadata CSV (gzip accepted)")
    p_ingest.add_argument("--versions", type=Path, help="published versions CSV (optional)")
    p_ingest.add_argument("--cves", type=Path, required=True,
                          help="CVE dump: JSON array or NDJSON (gzip accepted)")
    p_ingest.add_argument("--cve-fields", type=Path, help="JSON file remapping CVE field names")

    p_map = sub.add_parser("map", help="run mapping strategies over the store")
    add_common(p_map)
    p_map.add_argument("--lookup", type=Path, help=lookup_help)
    p_map.add_argument("--cutoff", type=_cutoff_arg, default=0.3,
                       help="fuzzy similarity cutoff (default 0.3)")
    p_map.add_argument("--strategy", choices=("strict", "fuzzy", "repository", "all"),
                       default="all")
    p_map.add_argument("--mode", choices=("all", "first"), default=None,
                       help="repository counting mode (default: both)")
    p_map.add_argument("--go-last-segment", action="store_true",
                       help="extension: also match the last segment of Go module paths")

    p_report = sub.add_parser("report", help="export analytics from the workspace")
    add_common(p_report)
    p_report.add_argument("--report", default="all",
                          help="report name or 'all' (names: %s)" % ", ".join(ALL_REPORTS))
    p_report.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    p_report.add_argument("--top-k", type=_positive_int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.workspace:
        return _fail("no workspace given (use --workspace or set VULNMAP_WORKSPACE)", EXIT_USAGE)
    if args.command == "report" and args.report != "all" and args.report not in ALL_REPORTS:
        return _fail(
            f"unknown report {args.report!r} (choose from {', '.join(ALL_REPORTS)} or 'all')",
            EXIT_USAGE,
        )
    if args.command == "map" and args.mode is not None and args.strategy != "repository":
        return _fail("--mode applies only to --strategy repository", EXIT_USAGE)
    workspace = store.Workspace(args.workspace)
    commands = {"ingest": cmd_ingest, "map": cmd_map, "report": cmd_report}
    try:
        summary = commands[args.command](args, workspace)
    except (CommandError, store.WorkspaceLocked, store.CorruptStore, OSError) as exc:
        return _fail(str(exc))
    return _emit({**summary, "workspace": str(workspace.root)})


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
