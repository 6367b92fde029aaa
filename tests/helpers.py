"""Shared test utilities: brute-force oracles and random corpus generators.

The oracles are deliberately naive nested-loop translations of the matching
rules, independent of the index-backed implementations they check.
"""

from __future__ import annotations

import random
import re
from urllib.parse import urlsplit

from vulnmap.fuzzy import EmptyInput, similarity
from vulnmap.ingest import SUPPORTED_PROVIDERS, CveCpe, CveRecord, PackageRecord, extract_repo_link
from vulnmap.cpe import parse_cpe23

# ---------------------------------------------------------------------------
# oracle helpers
# ---------------------------------------------------------------------------

_ORACLE_LINK_RE = re.compile(
    r"(?:^|://)(?:[^/@]*@)?(?:www\.)?"
    r"(github\.com|bitbucket\.org|gitlab\.com)(?::\d+)?"
    r"/([^/?#]+)/([^/?#]+)"
)


def oracle_links(cve: CveRecord) -> list[str]:
    """Reference-link extraction via a regex, independent of urlsplit."""
    links: dict[str, None] = {}
    for url in cve.references:
        m = _ORACLE_LINK_RE.search(url.strip().lower())
        if not m:
            continue
        host, owner, repo = m.group(1), m.group(2), m.group(3)
        if repo.endswith(".git"):
            repo = repo[:-4]
        if owner and repo:
            links.setdefault(f"{host}/{owner}/{repo}")
    return list(links)


def _oracle_products(cve: CveRecord) -> list[str]:
    seen: dict[str, None] = {}
    for cpe in cve.cpes:
        if cpe.product not in ("*", "-") and cpe.product:
            seen.setdefault(cpe.product)
    return list(seen)


def _oracle_targets(cve: CveRecord) -> set[str]:
    return {c.target_sw for c in cve.cpes if c.target_sw not in ("*", "-") and c.target_sw}


def _word_match(keyword: str, text: str) -> bool:
    return re.search(rf"(?<![0-9a-z]){re.escape(keyword)}(?![0-9a-z])", text) is not None


def _oracle_infer(cve: CveRecord, lookup) -> str | None:
    summary = cve.summary.lower()
    refs = [r.lower() for r in cve.references]
    hits = set()
    for platform, keywords in lookup.summary_keywords.items():
        for kw in keywords:
            if _word_match(kw, summary):
                hits.add(platform)
    for platform, hosts in lookup.reference_hosts.items():
        for host in hosts:
            if any(host in ref for ref in refs):
                hits.add(platform)
    if len(hits) == 1:
        return hits.pop()
    return None


def as_tuple(result) -> tuple:
    return (
        result.cve_id,
        result.package_key,
        result.platform,
        result.confidence,
        result.evidence.kind,
        result.evidence.payload,
    )


def oracle_strict(packages, cves, lookup) -> set[tuple]:
    results = set()
    for cve in cves:
        products = _oracle_products(cve)
        if not products:
            continue
        targets = _oracle_targets(cve)
        summary = cve.summary.lower()
        for pkg in packages:
            if pkg.name not in products:
                continue
            aliases = lookup.target_sw_aliases.get(pkg.platform, frozenset())
            if aliases & targets:
                evidence = ("product_name_equal", ())
            else:
                keyword = None
                for kw in sorted(lookup.summary_keywords.get(pkg.platform, frozenset())):
                    if _word_match(kw, summary):
                        keyword = kw
                        break
                if keyword is None:
                    continue
                evidence = ("summary_keyword", (keyword,))
            results.add(
                (cve.cve_id, pkg.package_key, pkg.platform, 1.0, evidence[0], evidence[1])
            )
    return results


def oracle_fuzzy(packages, cves, lookup, cutoff) -> set[tuple]:
    results = set()
    for cve in cves:
        products = _oracle_products(cve)
        if not products:
            continue
        platform = _oracle_infer(cve, lookup)
        if platform is None:
            continue
        claimed = set()
        for product in products:
            name_to_key: dict[str, str] = {}
            for pkg in packages:
                if pkg.platform != platform:
                    continue
                if product in pkg.name or any(product in kw for kw in pkg.keywords):
                    name_to_key.setdefault(pkg.name, pkg.package_key)
            best = None
            for name in name_to_key:
                try:
                    score = similarity(product, name)
                except EmptyInput:
                    continue
                if score < cutoff:
                    continue
                order = (-score, len(name), name)
                if best is None or order < best[0]:
                    best = (order, name, score)
            if best is None:
                continue
            key = name_to_key[best[1]]
            if key in claimed:
                continue
            claimed.add(key)
            results.add(
                (cve.cve_id, key, platform, best[2], "fuzzy_score", (product, best[1]))
            )
    return results


def oracle_repository(packages, cves, mode) -> set[tuple]:
    results = set()
    for cve in cves:
        links = oracle_links(cve)
        claimed = set()
        done = False
        for link in links:
            if done:
                break
            for pkg in packages:
                if pkg.repo_link != link:
                    continue
                if pkg.package_key in claimed:
                    continue
                claimed.add(pkg.package_key)
                results.add(
                    (cve.cve_id, pkg.package_key, pkg.platform, 1.0, "repo_link", (link,))
                )
                if mode == "first":
                    done = True
                    break
    return results


# ---------------------------------------------------------------------------
# reference CPE 2.3 splitter
# ---------------------------------------------------------------------------


def reference_cpe23_fields(uri: str) -> list[str] | None:
    """The 11 raw fields of a CPE 2.3 formatted string (escapes kept), or None.

    A character loop, independent of the regular expression in vulnmap.cpe:
    after the ``cpe:2.3:`` prefix, split on every colon that no backslash
    escapes (a backslash escapes any next character, and a lone one at the
    end stays in the last field). None unless that gives 11 fields whose
    first is a valid part.
    """
    prefix = "cpe:2.3:"
    if not uri.startswith(prefix):
        return None
    fields: list[str] = []
    current: list[str] = []
    escaped = False
    for ch in uri[len(prefix):]:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == ":":
            fields.append("".join(current))
            current = []
        else:
            current.append(ch)
    fields.append("".join(current))
    if len(fields) != 11 or fields[0] not in ("a", "o", "h", "*", "-"):
        return None
    return fields


# ---------------------------------------------------------------------------
# reference repository URL parser
# ---------------------------------------------------------------------------


def reference_repo_link(url: str) -> str | None:
    """The "provider/owner/repository" link of a repository URL.

    Scheme, "www." prefixes, userinfo and ports are ignored; the trailing
    ".git" is stripped from the repository segment. Returns None for
    unsupported hosts or paths with fewer than two meaningful segments.
    """
    if not url:
        return None
    s = url.strip()
    if not s:
        return None
    if "://" not in s:
        s = "//" + s.lstrip("/")
    try:
        parts = urlsplit(s)
    except ValueError:
        return None
    host = parts.netloc.rsplit("@", 1)[-1].split(":")[0].lower()
    if host.startswith("www."):
        host = host[4:]
    if host not in SUPPORTED_PROVIDERS:
        return None
    segments = [seg for seg in parts.path.split("/") if seg]
    if len(segments) < 2:
        return None
    owner = segments[0].lower()
    repository = segments[1].lower()
    if repository.endswith(".git"):
        repository = repository[: -len(".git")]
    if not owner or not repository:
        return None
    return f"{host}/{owner}/{repository}"


# ---------------------------------------------------------------------------
# random corpora
# ---------------------------------------------------------------------------

_PLATFORMS = ["NPM", "Pypi", "Maven", "Go", "Ruby"]
_BASE_NAMES = ["alpha", "beta", "gamma", "delta", "react", "redo", "lodash",
               "lo", "dash", "util", "core", "parse", "matrix"]
_OWNERS = ["acme", "octo", "bigco", "a1"]
_TARGET_SW = ["node.js", "python", "java", "go", "ruby", "windows", "linux", "*"]
_SUMMARY_HINTS = ["npm", "maven", "pypi", "golang", "rubygems", "", ""]


def random_package(rng: random.Random, key: str) -> PackageRecord:
    platform = rng.choice(_PLATFORMS)
    name = rng.choice(_BASE_NAMES) + rng.choice(["", "", "-x", "-core", "2"])
    if platform == "Go" and rng.random() < 0.5:
        name = f"github.com/{rng.choice(_OWNERS)}/{name}"
    url = ""
    if rng.random() < 0.65:
        template = rng.choice(
            [
                "https://github.com/{o}/{r}",
                "http://www.github.com/{o}/{r}.git",
                "https://gitlab.com/{o}/{r}",
                "https://bitbucket.org/{o}/{r}/src",
                "https://example.com/{o}/{r}",
            ]
        )
        url = template.format(o=rng.choice(_OWNERS), r=rng.choice(_BASE_NAMES))
    keywords = tuple(rng.sample(_BASE_NAMES, rng.randint(0, 2)))
    return PackageRecord(
        package_key=key,
        platform=platform,
        name=name,
        keywords=keywords,
        license=rng.choice(["MIT", "Apache-2.0", "ISC", "GPL-3.0", ""]),
        repo_link=extract_repo_link(url),
    )


def random_cve(rng: random.Random, n: int) -> CveRecord:
    year = rng.randint(2015, 2021)
    cve_id = f"CVE-{year}-{2000 + n}"
    cpes: dict[CveCpe, None] = {}  # distinct pairs, first seen first, as load_cves keeps them
    for _ in range(rng.randint(0, 3)):
        product = rng.choice(_BASE_NAMES + ["*"])
        target = rng.choice(_TARGET_SW)
        cpe = parse_cpe23(f"cpe:2.3:a:acme:{product}:*:*:*:*:*:{target}:*:*")
        cpes.setdefault(CveCpe(cpe.product, cpe.target_sw))
    hints = rng.sample(_SUMMARY_HINTS, rng.randint(1, 2))
    summary = f"Issue {n} affecting {' and '.join(h for h in hints if h) or 'software'}."
    references = []
    for _ in range(rng.randint(0, 3)):
        template = rng.choice(
            [
                "https://github.com/{o}/{r}/issues/1",
                "https://github.com/{o}/{r}",
                "https://gitlab.com/{o}/{r}.git",
                "https://nvd.nist.gov/vuln/detail/{o}",
                "https://pypi.org/project/{r}/",
            ]
        )
        references.append(template.format(o=rng.choice(_OWNERS), r=rng.choice(_BASE_NAMES)))
    from datetime import date

    published = None if rng.random() < 0.2 else date(year, rng.randint(1, 12), rng.randint(1, 28))
    return CveRecord(
        cve_id=cve_id,
        summary=summary,
        references=tuple(references),
        published=published,
        cpes=tuple(cpes),
    )


def random_corpus(
    rng: random.Random, max_packages: int = 50, max_cves: int = 50
) -> tuple[list[PackageRecord], list[CveRecord]]:
    packages = [random_package(rng, f"R{i:04d}") for i in range(rng.randint(1, max_packages))]
    cves = [random_cve(rng, i) for i in range(rng.randint(1, max_cves))]
    return packages, cves
