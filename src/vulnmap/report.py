"""Frequency analytics over ingested records and mapping results."""

from __future__ import annotations

import csv
import heapq
import json
from collections import Counter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from decimal import Decimal

    from .records import MappingResult, PackageRecord, VersionCount

OTHERS_LABEL = "Others"
UNSPECIFIED_LABEL = "(unspecified)"

DEFAULT_TOP_K_SHARE = 7
DEFAULT_TOP_K_RANKING = 10


class SinkWrite(OSError):
    """Writing a report to its sink failed."""


class ReportRow(NamedTuple):
    keys: tuple[str, ...]
    count: int
    share: Decimal | None = None


class Report(NamedTuple):
    title: str
    group_columns: list[str]
    rows: list[ReportRow]
    metadata: dict


def _shares(counts: list[int]) -> list[Decimal]:
    """Percentage shares in hundredths, apportioned to sum to exactly 100.00.

    Plain per-row rounding drifts by up to half a cent per row, which blows
    the documented 0.01 summation tolerance once a table has a handful of
    rows; largest-remainder apportionment keeps every share within half a
    cent of exact while pinning the sum.
    """
    from decimal import Decimal  # only here: only a report with shares needs libmpdec

    total = sum(counts)
    if total == 0:
        return [Decimal("0.00") for _ in counts]
    # Every row's exact share is (c * 10000) / total: one denominator, so the
    # integer remainders rank the rows as their fractional parts do.
    cents = [c * 10000 // total for c in counts]
    remainders = sorted(
        range(len(counts)),
        key=lambda i: (-(counts[i] * 10000 % total), -counts[i], i),
    )
    for i in remainders[: 10000 - sum(cents)]:
        cents[i] += 1
    return [Decimal(c).scaleb(-2) for c in cents]


def _ranked(counter: Counter, limit: int | None = None) -> list[tuple]:
    """Items by count descending, then key; only the first ``limit`` if given.

    ``nsmallest`` keeps ``limit`` items rather than sorting them all: the
    repository-link counter has about one entry per package.
    """
    n = len(counter) if limit is None else limit
    return heapq.nsmallest(n, counter.items(), key=lambda kv: (-kv[1], kv[0]))


def _count_rows(counter: Counter, limit: int | None = None) -> list[ReportRow]:
    """Rows by count descending then key; a key that is not a tuple is one column.

    Single-column counters keep plain string keys: a tuple per distinct
    key would cost memory on counters as large as the package list.
    """
    return [
        ReportRow(keys=keys if isinstance(keys, tuple) else (keys,), count=count)
        for keys, count in _ranked(counter, limit)
    ]


def _top_k_rows(
    counter: Counter, top_k: int, prefix: tuple[str, ...] = (), shares: bool = False
) -> tuple[list[ReportRow], int]:
    """The top-k rows of a counter plus one "Others" row summing the rest.

    Keys are prefixed with ``prefix``; with ``shares`` every row, Others
    included, carries its apportioned share. Returns the rows (Others last,
    if any) and the number of keys folded into Others.
    """
    head = _ranked(counter, top_k)
    cells = [((*prefix, key), count) for key, count in head]
    folded = len(counter) - len(head)
    if folded:
        cells.append(((*prefix, OTHERS_LABEL), sum(counter.values()) - sum(c for _, c in head)))
    share_column = _shares([c for _, c in cells]) if shares else [None] * len(cells)
    rows = [
        ReportRow(keys=keys, count=count, share=share)
        for (keys, count), share in zip(cells, share_column)
    ]
    return rows, folded


class PackageCounts(NamedTuple):
    """Package counts per platform, per license (``""`` if none) and per repository link."""

    platforms: Counter
    licenses: Counter
    repo_links: Counter


def package_counts(packages: Iterable[PackageRecord]) -> PackageCounts:
    """The three package reports' counts, in one pass over any package iterable."""
    counts = PackageCounts(Counter(), Counter(), Counter())
    platforms, licenses, repo_links = counts
    for pkg in packages:
        platforms[pkg.platform] += 1
        licenses[pkg.license] += 1
        if pkg.repo_link is not None:
            repo_links[pkg.repo_link] += 1
    return counts


def platform_project_share(counts: PackageCounts, top_k: int = DEFAULT_TOP_K_SHARE) -> Report:
    """Project counts and percentage shares of the top-k package managers."""
    rows, aggregated = _top_k_rows(counts.platforms, top_k, shares=True)
    return Report(
        title="Projects per package manager",
        group_columns=["platform"],
        rows=rows,
        metadata={
            "top_k": top_k,
            "total_projects": sum(counts.platforms.values()),
            "aggregated_platforms": aggregated,
            "count_basis": "distinct package_key",
        },
    )


def license_distribution(counts: PackageCounts, top_k: int = DEFAULT_TOP_K_SHARE) -> Report:
    """License counts and shares; unlicensed packages are reported unranked.

    Shares are computed over licensed packages only, so the "(unspecified)"
    row carries a count but no share.
    """
    counter = counts.licenses.copy()  # ``counts`` is left as it was given
    unspecified = counter.pop("", 0)
    rows, _ = _top_k_rows(counter, top_k, shares=True)
    if unspecified:
        rows.append(ReportRow(keys=(UNSPECIFIED_LABEL,), count=unspecified, share=None))
    return Report(
        title="License distribution",
        group_columns=["license"],
        rows=rows,
        metadata={
            "top_k": top_k,
            "licensed_packages": sum(counter.values()),
            "unlicensed_packages": unspecified,
        },
    )


def versions_per_year(cells: Iterable[VersionCount]) -> Report:
    """Published version counts grouped by (platform, year).

    ``cells`` are ``(platform, year, count)`` triples, as ``Workspace.load_versions``
    yields and ``ingest.count_versions`` returns; the counts of a repeated
    cell add up.
    """
    counter = Counter()
    for platform, year, count in cells:
        counter[platform, str(year)] += count
    return Report(
        title="Published versions per package manager and year",
        group_columns=["platform", "year"],
        rows=_count_rows(counter),
        metadata={"total_versions": sum(counter.values())},
    )


def cve_per_year(years: dict[str, int]) -> Report:
    """CVE entry counts per year; ``years`` maps each CVE id to its ``CveRecord.year``."""
    counter = Counter(map(str, years.values()))
    return Report(
        title="New CVE entries per year",
        group_columns=["year"],
        rows=_count_rows(counter),
        metadata={"total_cves": sum(counter.values())},
    )


def vulnerable_package_count(
    mappings: dict[str, Iterable[MappingResult]], top_k: int = DEFAULT_TOP_K_RANKING
) -> Report:
    """Distinct vulnerable packages per (strategy, platform).

    Rows carry distinct package counts; (package, CVE) pair counts are
    exposed in metadata for comparison. Each strategy's "Others" row comes
    after every ranked row. Each strategy's results are read once, so they
    may be a stream.
    """
    ranked_rows: list[ReportRow] = []
    others_rows: list[ReportRow] = []
    pair_counts = {}
    for strategy_key, results in mappings.items():
        pairs = Counter((r.platform, r.package_key) for r in results)
        counter, mapped = Counter(), Counter()  # distinct packages, (package, CVE) pairs
        for (platform, _), n in pairs.items():
            counter[platform] += 1
            mapped[platform] += n
        pair_counts[strategy_key] = dict(sorted(mapped.items()))
        rows, aggregated = _top_k_rows(counter, top_k, prefix=(strategy_key,))
        if aggregated:
            others_rows.append(rows.pop())
        ranked_rows.extend(rows)
    ranked_rows.sort(key=lambda r: (-r.count, r.keys))
    others_rows.sort(key=lambda r: (-r.count, r.keys))
    return Report(
        title="Vulnerable package count per strategy and package manager",
        group_columns=["strategy", "platform"],
        rows=ranked_rows + others_rows,
        metadata={
            "top_k": top_k,
            "count_basis": "distinct packages",
            "pair_counts": pair_counts,
        },
    )


def mapped_cve_per_year(mappings: Iterable[MappingResult], years: dict[str, int]) -> Report:
    """Distinct mapped CVE counts per (platform, year); ``years`` as for ``cve_per_year``."""
    cells = {(r.platform, str(years[r.cve_id]), r.cve_id) for r in mappings if r.cve_id in years}
    return Report(
        title="Mapped CVE entries per package manager and year",
        group_columns=["platform", "year"],
        rows=_count_rows(Counter((platform, year) for platform, year, _ in cells)),
        metadata={"count_basis": "distinct cve_id"},
    )


def top_repo_links(counts: PackageCounts, k: int = DEFAULT_TOP_K_RANKING) -> Report:
    """The k most frequent repository links across packages."""
    return Report(
        title="Most common repository links",
        group_columns=["repo_link"],
        rows=_count_rows(counts.repo_links, k),
        metadata={"k": k, "distinct_links": len(counts.repo_links)},
    )


def _report_to_csv(report: Report, out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*report.group_columns, "count", "share"])
    for row in report.rows:
        share = "" if row.share is None else str(row.share)
        writer.writerow([*row.keys, row.count, share])


def _report_to_json(report: Report, out: IO[str]) -> None:
    rows = []
    for row in report.rows:
        entry: dict = dict(zip(report.group_columns, row.keys))
        entry["count"] = row.count
        entry["share"] = None if row.share is None else float(row.share)
        rows.append(entry)
    doc = {
        "title": report.title,
        "group_columns": report.group_columns,
        "rows": rows,
        "metadata": report.metadata,
    }
    json.dump(doc, out, indent=2, ensure_ascii=False)
    out.write("\n")


def export_report(report: Report, format: str, sink: str | Path | IO[str]) -> None:
    """Write a report as CSV (RFC 4180, LF) or JSON; byte-stable across runs."""
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    writer = _report_to_csv if format == "csv" else _report_to_json
    try:
        if isinstance(sink, (str, Path)):
            with open(sink, "w", encoding="utf-8", newline="") as fh:
                writer(report, fh)
        else:
            writer(report, sink)
    except OSError as exc:
        if isinstance(sink, (str, Path)):  # name the file, as a store write does
            raise SinkWrite(f"cannot write report file {sink}: {exc.strerror or exc}") from exc
        raise SinkWrite(f"cannot write report: {exc}") from exc
