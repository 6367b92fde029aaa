"""The three CVE-to-package mapping strategies over an ingested corpus."""

from __future__ import annotations

import enum
import json
import re
from bisect import bisect_right
from functools import lru_cache
from importlib.resources import files as resource_files
from itertools import accumulate, islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .fuzzy import best_match
from .ingest import CveRecord, PackageRecord, cve_products, extract_repo_link


class Strategy(str, enum.Enum):
    STRICT_NAME = "strict_name"
    PARTIAL_FUZZY = "partial_fuzzy"
    REPOSITORY = "repository"


# Evidence kinds.
PRODUCT_NAME_EQUAL = "product_name_equal"
SUMMARY_KEYWORD = "summary_keyword"
REPO_LINK = "repo_link"
FUZZY_SCORE = "fuzzy_score"

# Result-set / output-file keys.
STRATEGY_KEYS = ("strict", "fuzzy", "repository_all", "repository_first")


class Evidence(NamedTuple):
    kind: str
    payload: tuple[str, ...] = ()


class MappingResult(NamedTuple):
    strategy: Strategy
    cve_id: str
    package_key: str
    platform: str
    confidence: float
    evidence: Evidence


class PlatformLookup:
    """Per-platform inference tables: target_sw aliases, summary keywords, reference hosts."""

    def __init__(
        self,
        target_sw_aliases: dict[str, frozenset[str]],
        summary_keywords: dict[str, frozenset[str]],
        reference_hosts: dict[str, frozenset[str]],
    ):
        for label, table in (
            ("target_sw", target_sw_aliases),
            ("keywords", summary_keywords),
            ("hosts", reference_hosts),
        ):
            seen: dict[str, str] = {}
            for platform, tokens in table.items():
                for token in tokens:
                    if not token:
                        raise ValueError(f"{label} entries must not be empty")
                    if token != token.lower():
                        raise ValueError(f"{label} entry {token!r} must be lowercase")
                    if token in seen and seen[token] != platform:
                        raise ValueError(
                            f"{label} entry {token!r} mapped to both "
                            f"{seen[token]!r} and {platform!r}"
                        )
                    seen[token] = platform
        self.target_sw_aliases = target_sw_aliases
        self.summary_keywords = summary_keywords
        self.reference_hosts = reference_hosts


class LookupConfig(NamedTuple):
    """Contents of a lookup configuration file."""

    lookup: PlatformLookup
    platform_aliases: dict[str, str]


def _to_lookup_config(doc) -> LookupConfig:
    """Build a LookupConfig from a parsed document; ValueError names a bad shape."""
    if not isinstance(doc, dict):
        raise ValueError("the document must be a JSON object")
    platforms = doc.get("platforms", {})
    aliases = doc.get("platform_aliases", {})
    if not isinstance(platforms, dict) or not all(isinstance(e, dict) for e in platforms.values()):
        raise ValueError('"platforms" must map each platform to an object')
    if not isinstance(aliases, dict) or not all(
        k and v and isinstance(v, str) for k, v in aliases.items()
    ):
        raise ValueError('"platform_aliases" must map each non-empty label to a platform string')

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


def _summary_keyword(lookup: PlatformLookup, platform: str, summary_lower: str) -> str | None:
    """The first of ``platform``'s keywords, in sorted order, that is a word of the summary."""
    keywords = sorted(lookup.summary_keywords.get(platform, ()))
    return next((kw for kw in keywords if _keyword_pattern(kw).search(summary_lower)), None)


def _platform_hits(cve: CveRecord, lookup: PlatformLookup) -> set[str]:
    summary_lower = cve.summary.lower()
    refs_lower = [r.lower() for r in cve.references]
    hits: set[str] = set()
    for platform in lookup.summary_keywords:
        if _summary_keyword(lookup, platform, summary_lower) is not None:
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
    links = dict.fromkeys(map(extract_repo_link, cve.references))
    links.pop(None, None)  # the references on no supported host
    return list(links)


def _result_sort_key(result: MappingResult):
    return (result.cve_id, result.platform, result.package_key)


# Each strategy maps one CVE independently of all others: map per CVE, then
# sort, so CVE input order can never change the output. A strategy's per-CVE
# closure returns None for a skipped CVE, else its candidate matches in the
# strategy's priority order; the runner keeps the first per package key.

Candidate = tuple[PackageRecord, float, Evidence]
PerCve = Callable[[CveRecord], Iterable[Candidate] | None]


def _run_per_cve(
    strategy: Strategy, per_cve: PerCve, cves: list[CveRecord], tallies: dict | None
) -> list[MappingResult]:
    """Map every CVE, keep each package key's first candidate, sort, fill ``tallies``."""
    results: list[MappingResult] = []
    skipped = 0
    for cve in cves:
        candidates = per_cve(cve)
        if candidates is None:
            skipped += 1
            continue
        first: dict[str, Candidate] = {}
        for candidate in candidates:
            first.setdefault(candidate[0].package_key, candidate)
        results.extend(
            MappingResult(strategy, cve.cve_id, key, pkg.platform, confidence, evidence)
            for key, (pkg, confidence, evidence) in first.items()
        )
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


def build_indexes(
    packages: list[PackageRecord], key: Callable[[PackageRecord], str | None]
) -> dict[str, list[PackageRecord]]:
    """Group ``packages`` under ``key(pkg)`` in source order; a package keyed None is left out.

    Each strategy builds the views it reads and drops them when it returns. It
    calls this through the module global, so a wrapper set on
    ``match.build_indexes`` sees every build.
    """
    groups: dict[str, list[PackageRecord]] = {}
    for pkg in packages:
        k = key(pkg)
        if k is not None:
            groups.setdefault(k, []).append(pkg)
    return groups


def _go_last_segment(pkg: PackageRecord) -> str | None:
    """The last path segment of a Go module name with a path, else None."""
    return pkg.name.rsplit("/", 1)[-1] if pkg.platform == "Go" and "/" in pkg.name else None


def _cve_target_sw(cve: CveRecord) -> set[str]:
    return {c.target_sw for c in cve.cpes if c.target_sw not in ("*", "-") and c.target_sw}


def strict_name_map(
    packages: list[PackageRecord],
    cves: list[CveRecord],
    lookup: PlatformLookup,
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
    by_name = build_indexes(packages, attrgetter("name"))
    by_last_segment = build_indexes(packages, _go_last_segment) if go_last_segment else {}

    def per_cve(cve: CveRecord) -> list[Candidate] | None:
        products = cve_products(cve)
        if not products:
            return None
        targets = _cve_target_sw(cve)
        summary_lower = cve.summary.lower()
        out: list[Candidate] = []
        for product in products:
            for pkg in by_name.get(product, []) + by_last_segment.get(product, []):
                if lookup.target_sw_aliases.get(pkg.platform, frozenset()) & targets:
                    out.append((pkg, 1.0, Evidence(PRODUCT_NAME_EQUAL)))
                elif (kw := _summary_keyword(lookup, pkg.platform, summary_lower)) is not None:
                    out.append((pkg, 1.0, Evidence(SUMMARY_KEYWORD, (kw,))))
        return out

    return _run_per_cve(Strategy.STRICT_NAME, per_cve, cves, tallies)


def _haystack(pool: list[PackageRecord]) -> tuple[str, list[int]]:
    """One text of each package's name and keywords, each followed by "\\0", in source order.

    Returns the text and the start offset of each package in it, followed by
    the text's length. It is joined from the packages' own strings, so no
    per-package string is built.
    """
    fields = [s for pkg in pool for s in (pkg.name, *pkg.keywords)]
    fields.append("")  # the "\0" after the last package
    sizes = (len(pkg.name) + sum(map(len, pkg.keywords)) + len(pkg.keywords) + 1 for pkg in pool)
    return "\0".join(fields), list(accumulate(sizes, initial=0))


def _candidates(
    pool: list[PackageRecord], text: str, starts: list[int], product: str
) -> Iterator[PackageRecord]:
    """Packages of ``pool`` whose name or a keyword contains ``product``, in source order.

    ``text`` and ``starts`` are ``_haystack(pool)``. Each hit in the text is
    confirmed with the exact test, so a hit across a separator or a package
    boundary is skipped; after a confirmed hit the search resumes at the next
    package.
    """
    end = len(text)
    pos = text.find(product)
    while -1 < pos < end:
        i = bisect_right(starts, pos) - 1
        pkg = pool[i]
        if product in pkg.name or any(product in kw for kw in pkg.keywords):
            yield pkg
            pos = text.find(product, starts[i + 1])
        else:
            pos = text.find(product, pos + 1)


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
    by_platform = build_indexes(packages, attrgetter("platform"))
    # Built on the first CVE that infers the platform, kept for the rest of the call.
    haystacks: dict[str, tuple[str, list[int]]] = {}
    # The pool is fixed for the call, so each (platform, product) is decided once:
    # the chosen package, its name and score, or None.
    decided: dict[tuple[str, str], tuple[PackageRecord, str, float] | None] = {}
    if tallies is not None:
        tallies["ambiguous_platform"] = 0

    def per_cve(cve: CveRecord) -> list[Candidate] | None:
        # The package manager is assigned first; product matching follows.
        platform = infer_platform(cve, lookup, tallies)
        if platform is None:
            return None
        products = cve_products(cve)
        if not products:
            return None
        pool = by_platform.get(platform, [])
        if platform not in haystacks:
            haystacks[platform] = _haystack(pool)
        text, starts = haystacks[platform]
        out: list[Candidate] = []
        for product in products:
            if (platform, product) not in decided:
                # First package in source order claims a shared (platform, name).
                names: dict[str, PackageRecord] = {}
                for pkg in _candidates(pool, text, starts, product):
                    names.setdefault(pkg.name, pkg)
                chosen = best_match(product, sorted(names), cutoff) if names else None
                decided[platform, product] = None if chosen is None else (names[chosen[0]], *chosen)
            if (decision := decided[platform, product]) is not None:
                pkg, name, score = decision
                out.append((pkg, score, Evidence(FUZZY_SCORE, (product, name))))
        return out

    return _run_per_cve(Strategy.PARTIAL_FUZZY, per_cve, cves, tallies)


def repository_map(
    packages: list[PackageRecord],
    cves: list[CveRecord],
    mode: str = "all",
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
    by_repo_link = build_indexes(packages, attrgetter("repo_link"))

    def per_cve(cve: CveRecord) -> Iterable[Candidate] | None:
        links = extract_reference_links(cve)
        if not links:
            return None
        candidates = (
            (pkg, 1.0, Evidence(REPO_LINK, (link,)))
            for link in links
            for pkg in by_repo_link.get(link, ())
        )
        return islice(candidates, 1 if mode == "first" else None)

    return _run_per_cve(Strategy.REPOSITORY, per_cve, cves, tallies)


class RunOutcome:
    """Keyed result sets of one mapping run plus tally metadata."""

    def __init__(self, results: dict[str, list[MappingResult]], tallies: dict):
        self.results = results
        self.tallies = tallies


def run_all(
    packages: list[PackageRecord],
    cves: list[CveRecord],
    lookup: PlatformLookup,
    cutoff: float = 0.3,
    strategies: tuple[str, ...] = STRATEGY_KEYS,
    go_last_segment: bool = False,
) -> RunOutcome:
    """Run the selected strategies and return keyed results plus tallies."""
    runners = {
        "strict": lambda t: strict_name_map(packages, cves, lookup, go_last_segment, t),
        "fuzzy": lambda t: partial_fuzzy_map(packages, cves, lookup, cutoff, t),
        "repository_all": lambda t: repository_map(packages, cves, "all", t),
        "repository_first": lambda t: repository_map(packages, cves, "first", t),
    }
    results: dict[str, list[MappingResult]] = {}
    tallies: dict = {}
    for key in strategies:
        tallies[key] = {}
        results[key] = runners[key](tallies[key])
    return RunOutcome(results=results, tallies=tallies)
