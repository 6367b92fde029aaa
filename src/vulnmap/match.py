"""The three CVE-to-package mapping strategies over an ingested corpus."""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib.resources import files as resource_files
from pathlib import Path
from typing import Callable

from .fuzzy import best_match
from .ingest import (
    CveRecord,
    IndexSet,
    PackageRecord,
    build_indexes,
    cve_products,
    extract_repo_ref,
)


class Strategy(str, enum.Enum):
    STRICT_NAME = "strict_name"
    PARTIAL_FUZZY = "partial_fuzzy"
    REPOSITORY = "repository"


# Evidence kinds.
PRODUCT_NAME_EQUAL = "product_name_equal"
SUMMARY_KEYWORD = "summary_keyword"
REFERENCE_URL = "reference_url"
REPO_LINK = "repo_link"
FUZZY_SCORE = "fuzzy_score"

# Result-set / output-file keys.
STRATEGY_KEYS = ("strict", "fuzzy", "repository_all", "repository_first")


@dataclass(frozen=True)
class Evidence:
    kind: str
    payload: tuple[str, ...] = ()


@dataclass(frozen=True)
class MappingResult:
    strategy: Strategy
    cve_id: str
    package_key: str
    platform: str
    confidence: float
    evidence: Evidence


@dataclass(frozen=True)
class PlatformLookup:
    """Per-platform inference tables: target_sw aliases, summary keywords, reference hosts."""

    target_sw_aliases: dict[str, frozenset[str]]
    summary_keywords: dict[str, frozenset[str]]
    reference_hosts: dict[str, frozenset[str]]

    def __post_init__(self):
        for label, table in (
            ("target_sw", self.target_sw_aliases),
            ("keywords", self.summary_keywords),
            ("hosts", self.reference_hosts),
        ):
            seen: dict[str, str] = {}
            for platform, tokens in table.items():
                for token in tokens:
                    if token != token.lower():
                        raise ValueError(f"{label} entry {token!r} must be lowercase")
                    if token in seen and seen[token] != platform:
                        raise ValueError(
                            f"{label} entry {token!r} mapped to both "
                            f"{seen[token]!r} and {platform!r}"
                        )
                    seen[token] = platform


@dataclass(frozen=True)
class LookupConfig:
    """Contents of a lookup configuration file."""

    lookup: PlatformLookup
    platform_aliases: dict[str, str] = field(default_factory=dict)


def _to_lookup_config(doc) -> LookupConfig:
    """Build a LookupConfig from a parsed document; ValueError names a bad shape."""
    if not isinstance(doc, dict):
        raise ValueError("the document must be a JSON object")
    platforms = doc.get("platforms") or {}
    aliases = doc.get("platform_aliases") or {}
    if not isinstance(platforms, dict) or not all(isinstance(e, dict) for e in platforms.values()):
        raise ValueError('"platforms" must map each platform to an object')
    if not isinstance(aliases, dict) or not all(isinstance(v, str) for v in aliases.values()):
        raise ValueError('"platform_aliases" must map each label to a platform string')

    def table(key: str) -> dict[str, frozenset[str]]:
        out = {}
        for platform, entry in platforms.items():
            tokens = entry.get(key, [])
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise ValueError(f'"platforms.{platform}.{key}" must be a list of strings')
            out[platform] = frozenset(t.lower() for t in tokens)
        return out

    return LookupConfig(
        lookup=PlatformLookup(
            target_sw_aliases=table("target_sw"),
            summary_keywords=table("keywords"),
            reference_hosts=table("hosts"),
        ),
        platform_aliases=dict(aliases),
    )


def load_lookup_config(path: str | Path) -> LookupConfig:
    with open(path, encoding="utf-8") as fh:
        return _to_lookup_config(json.load(fh))


def default_lookup_config() -> LookupConfig:
    """Lookup table shipped with the package (editable copy via --lookup)."""
    text = resource_files("vulnmap").joinpath("data/default_lookup.json").read_text("utf-8")
    return _to_lookup_config(json.loads(text))


@lru_cache(maxsize=4096)
def _keyword_pattern(keyword: str) -> re.Pattern:
    # Explicit alnum lookarounds instead of \b: keywords like "node.js" end
    # in a word char but may abut punctuation in summaries.
    return re.compile(rf"(?<![0-9a-z]){re.escape(keyword)}(?![0-9a-z])")


def _keyword_in_summary(keyword: str, summary_lower: str) -> bool:
    return bool(_keyword_pattern(keyword).search(summary_lower))


def _platform_hits(cve: CveRecord, lookup: PlatformLookup) -> set[str]:
    summary_lower = cve.summary.lower()
    refs_lower = [r.lower() for r in cve.references]
    hits: set[str] = set()
    for platform, keywords in lookup.summary_keywords.items():
        if any(_keyword_in_summary(kw, summary_lower) for kw in keywords):
            hits.add(platform)
    for platform, hosts in lookup.reference_hosts.items():
        if any(host in ref for host in hosts for ref in refs_lower):
            hits.add(platform)
    return hits


def infer_platform(
    cve: CveRecord, lookup: PlatformLookup, tallies: dict | None = None
) -> str | None:
    """Assign a package manager to a CVE from its summary and references.

    Returns the single matching platform, or None when no platform matches
    or more than one does (the ambiguous case increments
    ``tallies["ambiguous_platform"]``).
    """
    hits = _platform_hits(cve, lookup)
    if len(hits) == 1:
        return next(iter(hits))
    if len(hits) > 1 and tallies is not None:
        tallies["ambiguous_platform"] = tallies.get("ambiguous_platform", 0) + 1
    return None


def extract_reference_links(cve: CveRecord) -> list[str]:
    """Normalize the CVE's reference URLs into "provider/owner/repository" links.

    Only supported repository hosts contribute; duplicates are removed
    preserving first-occurrence order.
    """
    links: dict[str, None] = {}
    for url in cve.references:
        ref = extract_repo_ref(url)
        if ref is not None:
            links.setdefault(ref.repo_link)
    return list(links)


def _result_sort_key(result: MappingResult):
    return (result.cve_id, result.platform, result.package_key)


# Each strategy maps one CVE independently of all others: map per CVE, then
# sort, so CVE input order can never change the output.

PerCve = Callable[[CveRecord], list[MappingResult] | None]


def _run_per_cve(
    per_cve: PerCve, cves: list[CveRecord], tallies: dict | None
) -> list[MappingResult]:
    """Map every CVE (None from ``per_cve`` counts as skipped), sort, fill ``tallies``."""
    results: list[MappingResult] = []
    skipped = 0
    for cve in cves:
        emitted = per_cve(cve)
        if emitted is None:
            skipped += 1
        else:
            results.extend(emitted)
    results.sort(key=_result_sort_key)
    if tallies is not None:
        mapped = len({r.cve_id for r in results})
        tallies.update(
            total_cves=len(cves),
            skipped=skipped,
            mapped=mapped,
            unmatched=len(cves) - skipped - mapped,
        )
    return results


def _name_view(indexes: IndexSet) -> dict[str, list[tuple[str, str]]]:
    """name -> [(platform, package_key), ...] in index order."""
    view: dict[str, list[tuple[str, str]]] = {}
    for (platform, name), keys in indexes.by_name.items():
        view.setdefault(name, []).extend((platform, key) for key in keys)
    return view


def _cve_target_sw(cve: CveRecord) -> set[str]:
    return {c.target_sw for c in cve.cpes if c.target_sw not in ("*", "-") and c.target_sw}


def strict_name_map(
    packages: list[PackageRecord],
    cves: list[CveRecord],
    lookup: PlatformLookup,
    indexes: IndexSet | None = None,
    go_last_segment: bool = False,
    tallies: dict | None = None,
) -> list[MappingResult]:
    """Exact-name matching gated by platform evidence.

    A package maps to a CVE when its normalized name equals one of the
    CVE's product values and the package's platform is corroborated either
    by a target_sw alias or by a summary keyword. ``go_last_segment`` is an
    extension that additionally compares the last path segment of Go module
    names (off by default: full-path Go names intentionally fail to match
    bare product names). ``tallies``, when given, receives the CVE counts.
    """
    if indexes is None:
        indexes = build_indexes(packages)
    name_view = _name_view(indexes)
    last_segment_view: dict[str, list[tuple[str, str]]] | None = None
    if go_last_segment:
        last_segment_view = {}
        for (platform, name), keys in indexes.by_name.items():
            if platform == "Go" and "/" in name:
                segment = name.rsplit("/", 1)[-1]
                last_segment_view.setdefault(segment, []).extend(
                    (platform, key) for key in keys
                )

    def per_cve(cve: CveRecord) -> list[MappingResult] | None:
        products = cve_products(cve)
        if not products:
            return None
        targets = _cve_target_sw(cve)
        summary_lower = cve.summary.lower()
        out: list[MappingResult] = []
        seen: set[str] = set()
        for product in products:
            hits = list(name_view.get(product, ()))
            if last_segment_view is not None:
                hits += last_segment_view.get(product, ())
            for platform, key in hits:
                if key in seen:
                    continue
                if lookup.target_sw_aliases.get(platform, frozenset()) & targets:
                    evidence = Evidence(PRODUCT_NAME_EQUAL)
                else:
                    keyword = next(
                        (
                            kw
                            for kw in sorted(lookup.summary_keywords.get(platform, frozenset()))
                            if _keyword_in_summary(kw, summary_lower)
                        ),
                        None,
                    )
                    if keyword is None:
                        continue
                    evidence = Evidence(SUMMARY_KEYWORD, (keyword,))
                seen.add(key)
                out.append(
                    MappingResult(Strategy.STRICT_NAME, cve.cve_id, key, platform, 1.0, evidence)
                )
        return out

    return _run_per_cve(per_cve, cves, tallies)


def partial_fuzzy_map(
    packages: list[PackageRecord],
    cves: list[CveRecord],
    lookup: PlatformLookup,
    cutoff: float = 0.3,
    tallies: dict | None = None,
) -> list[MappingResult]:
    """Platform inference plus substring candidates plus fuzzy selection.

    For each CVE with exactly one inferred platform, packages on that
    platform whose name or keywords contain a product value compete; the
    candidate name most similar to the product wins if it clears the
    cutoff, at most one result per (CVE, product). ``tallies``, when given,
    receives the CVE counts including ``ambiguous_platform``.
    """
    by_platform: dict[str, list[PackageRecord]] = {}
    for pkg in packages:
        by_platform.setdefault(pkg.platform, []).append(pkg)
    if tallies is not None:
        tallies["ambiguous_platform"] = 0

    def per_cve(cve: CveRecord) -> list[MappingResult] | None:
        # The package manager is assigned first; product matching follows.
        platform = infer_platform(cve, lookup, tallies)
        if platform is None:
            return None
        products = cve_products(cve)
        if not products:
            return None
        pool = by_platform.get(platform, [])
        out: list[MappingResult] = []
        seen: set[str] = set()
        for product in products:
            # First package in source order claims a shared (platform, name).
            names: dict[str, str] = {}
            for pkg in pool:
                if product in pkg.name or any(product in kw for kw in pkg.keywords):
                    names.setdefault(pkg.name, pkg.package_key)
            if not names:
                continue
            chosen = best_match(product, sorted(names), cutoff)
            if chosen is None:
                continue
            name, score = chosen
            key = names[name]
            if key in seen:
                continue
            seen.add(key)
            out.append(
                MappingResult(
                    Strategy.PARTIAL_FUZZY,
                    cve.cve_id,
                    key,
                    platform,
                    score,
                    Evidence(FUZZY_SCORE, (product, name)),
                )
            )
        return out

    return _run_per_cve(per_cve, cves, tallies)


def repository_map(
    packages: list[PackageRecord],
    cves: list[CveRecord],
    mode: str = "all",
    indexes: IndexSet | None = None,
    tallies: dict | None = None,
) -> list[MappingResult]:
    """Match CVE reference links against package repo_links.

    ``mode="all"`` credits every package sharing a matched repository;
    ``mode="first"`` credits only the first package (source order) of the
    first matching link per CVE. ``tallies``, when given, receives the CVE
    counts.
    """
    if mode not in ("all", "first"):
        raise ValueError(f"mode must be 'all' or 'first', got {mode!r}")
    if indexes is None:
        indexes = build_indexes(packages)
    by_repo_link = indexes.by_repo_link
    platform_of = {pkg.package_key: pkg.platform for pkg in packages}

    def per_cve(cve: CveRecord) -> list[MappingResult] | None:
        links = extract_reference_links(cve)
        if not links:
            return None
        out: list[MappingResult] = []
        seen: set[str] = set()
        for link in links:
            keys = by_repo_link.get(link)
            if not keys:
                continue
            if mode == "first":
                key = keys[0]
                return [
                    MappingResult(
                        Strategy.REPOSITORY, cve.cve_id, key, platform_of[key], 1.0,
                        Evidence(REPO_LINK, (link,)),
                    )
                ]
            for key in keys:
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    MappingResult(
                        Strategy.REPOSITORY, cve.cve_id, key, platform_of[key], 1.0,
                        Evidence(REPO_LINK, (link,)),
                    )
                )
        return out

    return _run_per_cve(per_cve, cves, tallies)


@dataclass
class RunOutcome:
    """Keyed result sets of one mapping run plus tally metadata."""

    results: dict[str, list[MappingResult]]
    tallies: dict


def run_all(
    packages: list[PackageRecord],
    cves: list[CveRecord],
    lookup: PlatformLookup,
    cutoff: float = 0.3,
    malformed_cpes: int = 0,
    strategies: tuple[str, ...] = STRATEGY_KEYS,
    go_last_segment: bool = False,
) -> RunOutcome:
    """Run the selected strategies and return keyed results plus tallies."""
    indexes = build_indexes(packages)
    runners = {
        "strict": lambda t: strict_name_map(packages, cves, lookup, indexes, go_last_segment, t),
        "fuzzy": lambda t: partial_fuzzy_map(packages, cves, lookup, cutoff, t),
        "repository_all": lambda t: repository_map(packages, cves, "all", indexes, t),
        "repository_first": lambda t: repository_map(packages, cves, "first", indexes, t),
    }
    results: dict[str, list[MappingResult]] = {}
    tallies: dict = {}
    for key in strategies:
        tallies[key] = {}
        results[key] = runners[key](tallies[key])
    tallies["malformed_cpes"] = malformed_cpes
    return RunOutcome(results=results, tallies=tallies)
