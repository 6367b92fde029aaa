"""Command-line pipeline: vulnmap ingest | map | report over a workspace."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from . import ingest as ing
from . import report as rep
from . import store
from .match import STRATEGY_KEYS, LookupConfig, default_lookup_config, load_lookup_config, run_all

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2


class ReportSpec(NamedTuple):
    snapshot: str  # the store snapshot the builder reads: a key of SNAPSHOTS
    build: Callable  # (snapshot, workspace, top_k or None) -> rep.Report
    needs: tuple[str, ...] = ()  # strategy keys; at least one mapping file must exist


# Loaders and report functions are looked up when called, never captured here,
# so wrappers installed on ``store.Workspace`` or ``vulnmap.report`` apply.
SNAPSHOTS: dict[str, Callable] = {
    "packages": lambda ws: ws.load_packages(),
    "versions": lambda ws: ws.load_versions(),
    "cves": lambda ws: ws.load_cves(),
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
        "cves", lambda cves, ws, k: rep.cve_per_year(cves)),
    "mapped-cve-per-year": ReportSpec(
        "cves", lambda cves, ws, k: rep.mapped_cve_per_year(ws.load_mappings("strict"), cves),
        needs=("strict",)),
    "vulnerable-packages": ReportSpec(
        "mappings", lambda mappings, ws, k: rep.vulnerable_package_count(mappings, k or _RANK_K),
        needs=STRATEGY_KEYS),
}
ALL_REPORTS = tuple(REPORTS)


@dataclass
class RunConfig:
    workspace: Path
    packages: Path | None = None
    cves: Path | None = None
    versions: Path | None = None
    lookup: Path | None = None
    cve_fields: Path | None = None
    cutoff: float = 0.3
    strategies: tuple[str, ...] = STRATEGY_KEYS
    reports: tuple[str, ...] = ALL_REPORTS
    top_k: int | None = None
    format: str = "csv"
    go_last_segment: bool = False


def _fail(message: str) -> int:
    print(f"vulnmap: error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _emit(obj: dict) -> None:
    print(json.dumps(obj, ensure_ascii=False, sort_keys=True))


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


def _load_lookup(config: RunConfig) -> LookupConfig:
    if config.lookup is not None:
        return load_lookup_config(config.lookup)
    return default_lookup_config()


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


def _selected_strategies(strategy: str, mode: str | None) -> tuple[str, ...]:
    if strategy == "all":
        return STRATEGY_KEYS
    if strategy == "strict":
        return ("strict",)
    if strategy == "fuzzy":
        return ("fuzzy",)
    if mode == "all":
        return ("repository_all",)
    if mode == "first":
        return ("repository_first",)
    return ("repository_all", "repository_first")


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def cmd_ingest(config: RunConfig) -> int:
    for label, path in (("packages", config.packages), ("cves", config.cves)):
        if path is None:
            return _fail(f"--{label} is required for ingest")  # library callers only
    for label, path in (
        ("packages", config.packages),
        ("cves", config.cves),
        ("versions", config.versions),
        ("lookup", config.lookup),
        ("cve-fields", config.cve_fields),
    ):
        if path is not None and not Path(path).exists():
            return _fail(f"cannot read --{label} input: {path}")

    try:
        lookup_config = _load_lookup(config)
    except (OSError, ValueError) as exc:
        return _fail(f"invalid lookup config: {exc}")
    try:
        field_map = None if config.cve_fields is None else _load_cve_fields(config.cve_fields)
    except (OSError, ValueError) as exc:
        return _fail(f"invalid --cve-fields file: {exc}")

    workspace = store.Workspace(config.workspace).ensure()
    try:
        with workspace.lock():
            return _ingest_locked(config, workspace, lookup_config, field_map)
    except store.WorkspaceLocked as exc:
        return _fail(str(exc))


def _ingest_locked(config, workspace, lookup_config, field_map) -> int:
    rejects: list[dict] = []
    tallies: dict = {}
    aliases = lookup_config.platform_aliases

    try:
        with ing.open_text_auto(config.packages) as src:
            records = ing.load_packages(src, rejects=rejects.append, platform_aliases=aliases)
            package_count = workspace.write_ndjson(
                workspace.packages_path, (store.package_to_dict(p) for p in records)
            )
        version_count = 0
        if config.versions is not None:
            with ing.open_text_auto(config.versions) as src:
                records = ing.load_versions(src, rejects=rejects.append, platform_aliases=aliases)
                version_count = workspace.write_ndjson(
                    workspace.versions_path, (store.version_to_dict(v) for v in records)
                )
        else:
            workspace.write_ndjson(workspace.versions_path, ())
        with ing.open_text_auto(config.cves) as src:
            records = ing.load_cves(src, field_map=field_map, rejects=rejects.append, tallies=tallies)
            cve_count = workspace.write_ndjson(
                workspace.cves_path, (store.cve_to_dict(c) for c in records)
            )
    except (ing.CsvStructure, ing.JsonStructure) as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"cannot read input: {exc}")

    workspace.write_ndjson(workspace.rejects_path, rejects)
    reject_counts: dict[str, int] = {}
    for entry in rejects:
        reject_counts[entry["source"]] = reject_counts.get(entry["source"], 0) + 1

    inputs = {"packages": {"sha256": store.sha256_file(config.packages)}}
    if config.versions is not None:
        inputs["versions"] = {"sha256": store.sha256_file(config.versions)}
    inputs["cves"] = {"sha256": store.sha256_file(config.cves)}

    summary = {
        "packages": package_count,
        "versions": version_count,
        "cves": cve_count,
        "rejects": {"total": len(rejects), **reject_counts},
        "malformed_cpes": tallies.get("malformed_cpes", 0),
        "inputs": inputs,
    }
    workspace.write_summary(summary)
    _emit({**summary, "workspace": str(workspace.root)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# map
# ---------------------------------------------------------------------------


def cmd_map(config: RunConfig) -> int:
    workspace = store.Workspace(config.workspace)
    if not workspace.has_store():
        return _fail(
            f"workspace {workspace.root} has no normalized store; run 'vulnmap ingest' first"
        )
    try:
        lookup_config = _load_lookup(config)
    except (OSError, ValueError) as exc:
        return _fail(f"invalid lookup config: {exc}")

    try:
        with workspace.lock():
            packages = workspace.load_packages()
            cves = workspace.load_cves()
            summary = workspace.read_summary()
            outcome = run_all(
                packages,
                cves,
                lookup_config.lookup,
                cutoff=config.cutoff,
                malformed_cpes=summary.get("malformed_cpes", 0),
                strategies=config.strategies,
                go_last_segment=config.go_last_segment,
            )
            for strategy_key, results in outcome.results.items():
                workspace.write_ndjson(
                    workspace.mappings_path(strategy_key),
                    (store.mapping_to_dict(r) for r in results),
                )
    except store.WorkspaceLocked as exc:
        return _fail(str(exc))

    _emit(
        {
            "tallies": outcome.tallies,
            "results": {k: len(v) for k, v in outcome.results.items()},
            "workspace": str(workspace.root),
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(config: RunConfig) -> int:
    workspace = store.Workspace(config.workspace)
    if not workspace.has_store():
        return _fail(
            f"workspace {workspace.root} has no normalized store; run 'vulnmap ingest' first"
        )
    written = []
    try:
        with workspace.lock():
            summary = workspace.read_summary()
            for name in config.reports:
                needs = REPORTS[name].needs
                if needs and not any(workspace.mappings_path(k).exists() for k in needs):
                    return _fail(
                        f"report {name!r} needs mapping output "
                        f"{workspace.mappings_path(needs[0])}; run 'vulnmap map' first"
                    )
            kind = data = None
            for name in config.reports:
                spec = REPORTS[name]
                if spec.snapshot != kind:
                    data = None  # drop the previous snapshot before loading the next
                    kind, data = spec.snapshot, SNAPSHOTS[spec.snapshot](workspace)
                report = spec.build(data, workspace, config.top_k)
                report.metadata["inputs"] = summary.get("inputs", {})
                path = workspace.report_path(name, config.format)
                rep.export_report(report, config.format, path)
                written.append(str(path))
    except store.WorkspaceLocked as exc:
        return _fail(str(exc))
    except rep.SinkWrite as exc:
        return _fail(str(exc))
    _emit({"written": written, "workspace": str(workspace.root)})
    return EXIT_OK


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
    p_ingest.add_argument("--lookup", help=lookup_help)
    p_ingest.add_argument("--packages", required=True,
                          help="package metadata CSV (gzip accepted)")
    p_ingest.add_argument("--versions", help="published versions CSV (optional)")
    p_ingest.add_argument("--cves", required=True,
                          help="CVE dump: JSON array or NDJSON (gzip accepted)")
    p_ingest.add_argument("--cve-fields", help="JSON file remapping CVE field names")

    p_map = sub.add_parser("map", help="run mapping strategies over the store")
    add_common(p_map)
    p_map.add_argument("--lookup", help=lookup_help)
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
    p_report.add_argument("--format", choices=("csv", "json"), default="csv")
    p_report.add_argument("--top-k", type=_positive_int, default=None)

    return parser


def _as_path(value) -> Path | None:
    return Path(value) if value else None


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(workspace=Path(args.workspace))
    if args.command in ("ingest", "map"):
        config.lookup = _as_path(args.lookup)
    if args.command == "ingest":
        config.packages = _as_path(args.packages)
        config.cves = _as_path(args.cves)
        config.versions = _as_path(args.versions)
        config.cve_fields = _as_path(args.cve_fields)
    elif args.command == "map":
        config.cutoff = args.cutoff
        config.strategies = _selected_strategies(args.strategy, args.mode)
        config.go_last_segment = args.go_last_segment
    elif args.command == "report":
        config.reports = ALL_REPORTS if args.report == "all" else (args.report,)
        config.format = args.format
        config.top_k = args.top_k
    return config


def _usage_error(message: str) -> int:
    print(f"vulnmap: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.workspace:
        return _usage_error("no workspace given (use --workspace or set VULNMAP_WORKSPACE)")
    if args.command == "report" and args.report != "all" and args.report not in ALL_REPORTS:
        return _usage_error(
            f"unknown report {args.report!r} (choose from {', '.join(ALL_REPORTS)} or 'all')"
        )
    commands = {"ingest": cmd_ingest, "map": cmd_map, "report": cmd_report}
    return commands[args.command](_config_from_args(args))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
