"""The three CVE-to-package mapping strategies over an ingested corpus."""

from __future__ import annotations

import io
import re
from bisect import bisect_right
from functools import lru_cache
from itertools import chain, islice
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Sequence

from .fuzzy import best_match
from .ingest import cve_products, extract_repo_link
# The lookup configuration lives in lookup.py; its names still import from here.
from .lookup import (
    LookupConfig, PlatformLookup, _to_lookup_config, default_lookup_config, load_lookup_config,
)
from .records import (
    KEY_STRATEGIES, STRATEGY_KEYS, CveRecord, Evidence, MappingResult, PackageRecord, Strategy,
)

# Evidence kinds.
PRODUCT_NAME_EQUAL = "product_name_equal"
SUMMARY_KEYWORD = "summary_keyword"
REPO_LINK = "repo_link"
FUZZY_SCORE = "fuzzy_score"


@lru_cache(maxsize=4096)
def _keyword_pattern(keyword: str) -> re.Pattern:
    # Explicit alnum lookarounds instead of \b: keywords like "node.js" end
    # in a word char but may abut punctuation in summaries.
    return re.compile(rf"(?<![0-9a-z]){re.escape(keyword)}(?![0-9a-z])")


def _summary_keyword(lookup: PlatformLookup, platform: str, summary_lower: str) -> str | None:
    """The first of ``platform``'s keywords, in sorted order, that is a word of the summary."""
    keywords = sorted(lookup.summary_keywords.get(platform, ()))
    # A word of the summary is also a substring of it: the cheap test first.
    return next((kw for kw in keywords
                 if kw in summary_lower and _keyword_pattern(kw).search(summary_lower)), None)


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


# The package side is far larger than the CVE side, so run_all first computes
# what each CVE asks for, then keeps of one pass over the packages only what
# some CVE can ask for: a package's (package_key, platform) under its name or
# repository link, or its text in its platform's fuzzy view.


class FuzzyView(NamedTuple):
    """One platform's packages for the substring search, in source order.

    ``text`` holds each package's name and keywords, each followed by "\\0";
    ``starts`` the offset of each package in it, then the text's length;
    ``keys`` the package keys. A package with "\\0" in its name or a keyword
    is also kept as its fields in ``nul_fields``, under its position.
    """

    text: str
    starts: Sequence[int]  # an array("q")
    keys: list[str]
    nul_fields: dict[int, tuple[str, ...]]

    def name(self, i: int) -> str:
        """The name of the package at position ``i``."""
        if i in self.nul_fields:
            return self.nul_fields[i][0]
        start = self.starts[i]
        return self.text[start:self.text.index("\0", start)]

    def candidates(self, product: str) -> Iterator[int]:
        """Positions of the packages whose name or a keyword contains ``product``, in source order.

        That is the exact test ``product in name or any(product in kw for kw
        in keywords)``. A product without "\\0" is found in the text only
        inside one field, so each hit is a package that passes it, and the
        search resumes at the next package. A product with "\\0" can be in a
        field only if the field holds "\\0", so only ``nul_fields`` is tested.
        """
        if "\0" in product:
            for i, fields in self.nul_fields.items():
                if any(product in field for field in fields):
                    yield i
            return
        text, starts, end = self.text, self.starts, len(self.text)
        pos = text.find(product)
        while -1 < pos < end:
            i = bisect_right(starts, pos) - 1
            yield i
            pos = text.find(product, starts[i + 1])


Holder = tuple[str, str]  # a package as a view keeps it: (package_key, platform)


class PackageViews(NamedTuple):
    """What ``build_indexes`` keeps of the packages; each list is in source order."""

    by_name: dict[str, list[Holder]]
    by_last_segment: dict[str, list[Holder]]  # Go modules, by their last path segment
    by_link: dict[str, list[Holder]]
    fuzzy: dict[str, FuzzyView]


def build_indexes(
    packages: Iterable[PackageRecord],
    names: Container[str] = frozenset(),
    links: Container[str] = frozenset(),
    platforms: Iterable[str] = (),
    go_last_segment: bool = False,
) -> PackageViews:
    """Keep of one pass over ``packages`` only what some CVE can ask for.

    A package is kept under its name if that is one of ``names``, under its
    repo_link if that is one of ``links``, and with ``go_last_segment`` a Go
    module with a path also under its last path segment if that is one of
    ``names``. Each of ``platforms`` gets a FuzzyView of its packages, empty
    if it has none. ``run_all`` calls this once, through the module global,
    so a wrapper set on ``match.build_indexes`` sees every build.
    """
    from array import array  # only here: loading it would add to every command's memory

    by_name: dict[str, list[Holder]] = {}
    by_last_segment: dict[str, list[Holder]] = {}
    by_link: dict[str, list[Holder]] = {}
    # Per platform: the text written so far, the starts, the keys and nul_fields.
    haystacks = {platform: (io.StringIO(), array("q", [0]), [], {}) for platform in platforms}
    for key, platform, name, keywords, _, link in packages:
        if name in names:
            by_name.setdefault(name, []).append((key, platform))
        if go_last_segment and platform == "Go" and "/" in name:
            segment = name.rsplit("/", 1)[1]
            if segment in names:
                by_last_segment.setdefault(segment, []).append((key, platform))
        if link in links:
            by_link.setdefault(link, []).append((key, platform))
        if (haystack := haystacks.get(platform)) is not None:
            text, starts, keys, nul_fields = haystack
            fields = (name, *keywords)
            joined = "\0".join(fields)
            if joined.count("\0") != len(keywords):
                nul_fields[len(keys)] = fields
            text.write(joined)
            text.write("\0")
            starts.append(starts[-1] + len(joined) + 1)
            keys.append(key)
    fuzzy = {}
    for platform in list(haystacks):  # one platform at a time: its buffer goes with it
        text, *rest = haystacks.pop(platform)
        fuzzy[platform] = FuzzyView(text.getvalue(), *rest)
    return PackageViews(by_name, by_last_segment, by_link, fuzzy)


class _Demand(NamedTuple):
    """What one CVE asks of the packages, computed once per ``run_all``."""

    cve: CveRecord
    products: list[str]
    platform: str | None  # fuzzy's inferred platform
    links: list[str]  # the repository links of its references


# Each strategy maps one CVE independently of all others: map per CVE, then
# sort, so CVE input order can never change the output. A strategy's per-CVE
# closure returns None for a skipped CVE, else its candidate matches in the
# strategy's priority order; the runner keeps the first per package key.

Candidate = tuple[str, str, float, Evidence]  # package_key, platform, confidence, evidence
PerCve = Callable[[_Demand], Iterable[Candidate] | None]


def _run_per_cve(
    strategy: Strategy, per_cve: PerCve, demands: list[_Demand], tallies: dict
) -> list[MappingResult]:
    """Map every CVE, keep each package key's first candidate, sort, fill ``tallies``."""
    results: list[MappingResult] = []
    skipped = 0
    for demand in demands:
        candidates = per_cve(demand)
        if candidates is None:
            skipped += 1
            continue
        first: dict[str, Candidate] = {}
        for candidate in candidates:
            first.setdefault(candidate[0], candidate)
        cve_id = demand.cve.cve_id
        results.extend(MappingResult(strategy, cve_id, *candidate) for candidate in first.values())
    results.sort(key=_result_sort_key)
    mapped = len({r.cve_id for r in results})
    tallies.update(
        total_cves=len(demands),
        skipped=skipped,
        mapped=mapped,
        unmatched=len(demands) - skipped - mapped,
    )
    return results


def _cve_target_sw(cve: CveRecord) -> set[str]:
    return {c.target_sw for c in cve.cpes if c.target_sw not in ("*", "-") and c.target_sw}


def _strict(views: PackageViews, lookup: PlatformLookup) -> PerCve:
    def per_cve(demand: _Demand) -> list[Candidate] | None:
        if not demand.products:
            return None
        targets = _cve_target_sw(demand.cve)
        summary_lower = demand.cve.summary.lower()
        out: list[Candidate] = []
        for product in demand.products:
            for key, platform in chain(
                views.by_name.get(product, ()), views.by_last_segment.get(product, ())
            ):
                if lookup.target_sw_aliases.get(platform, frozenset()) & targets:
                    out.append((key, platform, 1.0, Evidence(PRODUCT_NAME_EQUAL)))
                elif (kw := _summary_keyword(lookup, platform, summary_lower)) is not None:
                    out.append((key, platform, 1.0, Evidence(SUMMARY_KEYWORD, (kw,))))
        return out

    return per_cve


def _fuzzy(views: PackageViews, cutoff: float) -> PerCve:
    # The views are fixed for the call, so each (platform, product) is decided
    # once: the chosen package's key, its name and score, or None.
    decided: dict[tuple[str, str], tuple[str, str, float] | None] = {}

    def per_cve(demand: _Demand) -> list[Candidate] | None:
        platform = demand.platform
        if platform is None or not demand.products:
            return None
        view = views.fuzzy[platform]
        out: list[Candidate] = []
        for product in demand.products:
            if (platform, product) not in decided:
                # First package in source order claims a shared (platform, name).
                names: dict[str, int] = {}
                for i in view.candidates(product):
                    names.setdefault(view.name(i), i)
                chosen = best_match(product, sorted(names), cutoff) if names else None
                decided[platform, product] = (
                    None if chosen is None else (view.keys[names[chosen[0]]], *chosen)
                )
            if (decision := decided[platform, product]) is not None:
                key, name, score = decision
                out.append((key, platform, score, Evidence(FUZZY_SCORE, (product, name))))
        return out

    return per_cve


def _repository(views: PackageViews, first: bool) -> PerCve:
    def per_cve(demand: _Demand) -> Iterable[Candidate] | None:
        if not demand.links:
            return None
        candidates = (
            (key, platform, 1.0, Evidence(REPO_LINK, (link,)))
            for link in demand.links
            for key, platform in views.by_link.get(link, ())
        )
        return islice(candidates, 1 if first else None)

    return per_cve


class RunOutcome:
    """Keyed result sets of one mapping run plus tally metadata."""

    def __init__(self, results: dict[str, list[MappingResult]], tallies: dict):
        self.results = results
        self.tallies = tallies


def run_all(
    packages: Iterable[PackageRecord],
    cves: list[CveRecord],
    lookup: PlatformLookup,
    cutoff: float = 0.3,
    strategies: tuple[str, ...] = STRATEGY_KEYS,
    go_last_segment: bool = False,
) -> RunOutcome:
    """Run the selected strategies and return keyed results plus tallies.

    ``packages`` is iterated once, whatever the strategies, so any iterable
    works, a one-shot stream included; only what the CVEs ask for is kept.
    """
    tallies: dict = {key: {} for key in strategies}
    fuzzy = "fuzzy" in tallies
    if fuzzy:
        tallies["fuzzy"]["ambiguous_platform"] = 0
    repository = "repository_all" in tallies or "repository_first" in tallies
    demands = [
        _Demand(
            cve,
            cve_products(cve),
            # The package manager is assigned first; product matching follows.
            infer_platform(cve, lookup, tallies["fuzzy"]) if fuzzy else None,
            extract_reference_links(cve) if repository else [],
        )
        for cve in cves
    ]
    views = build_indexes(
        packages,
        names={p for d in demands for p in d.products} if "strict" in tallies else frozenset(),
        links={link for d in demands for link in d.links},
        platforms={d.platform for d in demands if d.platform is not None and d.products},
        go_last_segment=go_last_segment,
    )
    per_cve = {
        "strict": _strict(views, lookup),
        "fuzzy": _fuzzy(views, cutoff),
        "repository_all": _repository(views, first=False),
        "repository_first": _repository(views, first=True),
    }
    results = {
        key: _run_per_cve(KEY_STRATEGIES[key], per_cve[key], demands, tallies[key])
        for key in strategies
    }
    return RunOutcome(results=results, tallies=tallies)


def _run_one(key: str, tallies: dict | None, *args, **kwargs) -> list[MappingResult]:
    """``run_all`` with the one strategy ``key``: its results; ``tallies`` gets its CVE counts."""
    outcome = run_all(*args, strategies=(key,), **kwargs)
    if tallies is not None:
        tallies.update(outcome.tallies[key])
    return outcome.results[key]


def strict_name_map(
    packages: Iterable[PackageRecord],
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
    return _run_one("strict", tallies, packages, cves, lookup, go_last_segment=go_last_segment)


def partial_fuzzy_map(
    packages: Iterable[PackageRecord],
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
    return _run_one("fuzzy", tallies, packages, cves, lookup, cutoff=cutoff)


def repository_map(
    packages: Iterable[PackageRecord],
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
    return _run_one(f"repository_{mode}", tallies, packages, cves, None)  # no lookup is read
