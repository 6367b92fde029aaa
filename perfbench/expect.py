"""Expected outputs of the pipeline for a generated corpus.

A reference written apart from ``src/vulnmap``: the matching rules and the
report arithmetic follow the README, the similarity score is the same
formula restated, and the platform lookup is the default table as shipped.
It never imports the program, so a change to the program that alters an
output shows as a mismatch. ``crosscheck.py`` holds these mapping sets
against the brute-force oracles in ``tests/helpers.py``.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import re
from collections import Counter
from fractions import Fraction

from gen import Corpus, Cve

# The default lookup table: target_sw aliases, summary keywords, reference hosts.
LOOKUP = {
    "NPM": ({"node.js", "nodejs", "npm"}, {"npm", "node.js"}, {"npmjs.com", "npmjs.org"}),
    "Pypi": ({"python", "pypi"}, {"pypi", "pip"}, {"pypi.org", "pypi.python.org"}),
    "Maven": ({"maven", "java"}, {"maven"},
              {"mvnrepository.com", "search.maven.org", "repo.maven.apache.org"}),
    "Packagist": ({"packagist", "composer", "php"}, {"packagist", "composer"}, {"packagist.org"}),
    "NuGet": ({".net", "nuget", "asp.net"}, {"nuget"}, {"nuget.org"}),
    "Ruby": ({"ruby", "rails", "rubygems"}, {"rubygems"}, {"rubygems.org"}),
    "Go": ({"go", "golang"}, {"golang"}, {"pkg.go.dev", "godoc.org"}),
}
STRATEGY_VALUES = {"strict": "strict_name", "fuzzy": "partial_fuzzy",
                   "repository_all": "repository", "repository_first": "repository"}
# The functions of vulnmap.report that ``report --report all`` calls.
REPORT_FUNCTIONS = ("platform_project_share", "license_distribution", "versions_per_year",
                    "cve_per_year", "vulnerable_package_count", "mapped_cve_per_year",
                    "top_repo_links")
CUTOFF = 0.3
TOP_K_SHARE = 7
TOP_K_RANKING = 10

_LINK_RE = re.compile(
    r"(?:^|://)(?:[^/@]*@)?(?:www\.)?(github\.com|bitbucket\.org|gitlab\.com)(?::\d+)?"
    r"/([^/?#]+)/([^/?#]+)"
)
_NON_ALNUM = re.compile(r"[^0-9a-z]+")


def repo_link(url: str) -> str | None:
    m = _LINK_RE.search(url.strip().lower())
    if not m:
        return None
    repo = m.group(3).removesuffix(".git")
    return f"{m.group(1)}/{m.group(2)}/{repo}" if repo else None


def _has_word(word: str, text: str) -> bool:
    return re.search(rf"(?<![0-9a-z]){re.escape(word)}(?![0-9a-z])", text) is not None


def platform_hits(cve: Cve) -> set[str]:
    summary = cve.summary.lower()
    refs = [r.lower() for r in cve.references]
    return {
        platform for platform, (_, words, hosts) in LOOKUP.items()
        if any(_has_word(w, summary) for w in words)
        or any(h in r for h in hosts for r in refs)
    }


# -- similarity: trigram cosine (bigram fallback) against edit similarity ----

def _cosine(a: str, b: str, n: int) -> float:
    ga = Counter(("-" + a + "-")[i:i + n] for i in range(len(a) + 3 - n))
    gb = Counter(("-" + b + "-")[i:i + n] for i in range(len(b) + 3 - n))
    dot = sum(c * gb[g] for g, c in ga.items())
    if dot == 0:
        return 0.0
    return dot / (math.sqrt(sum(c * c for c in ga.values()))
                  * math.sqrt(sum(c * c for c in gb.values())))


def _edit_distance(a: str, b: str) -> int:
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        diag, row[0] = row[0], i
        for j, cb in enumerate(b, 1):
            diag, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, diag + (ca != cb))
    return row[-1]


def similarity(a: str, b: str) -> float | None:
    """Score in [0, 1], or None when either side has no alphanumerics."""
    na = _NON_ALNUM.sub("-", a.lower()).strip("-")
    nb = _NON_ALNUM.sub("-", b.lower()).strip("-")
    if not na or not nb:
        return None
    cos = _cosine(na, nb, 3) or _cosine(na, nb, 2)
    edit = 1.0 - _edit_distance(na, nb) / max(len(na), len(nb))
    return min(1.0, max(cos, edit, 0.0))


class _Pool:
    """One platform's packages as a single searchable text, one line each."""

    def __init__(self, packages):
        self.packages = packages
        lines = ["\t".join((p.name, *p.keywords)) for p in packages]
        self.text = "\n".join(lines)
        self.starts = []
        offset = 0
        for line in lines:
            self.starts.append(offset)
            offset += len(line) + 1

    def containing(self, product: str):
        """Packages whose name or a keyword contains ``product``, in source order."""
        i = self.text.find(product)
        while i >= 0:
            line = bisect.bisect_right(self.starts, i) - 1
            yield self.packages[line]
            if line + 1 == len(self.starts):
                return
            i = self.text.find(product, self.starts[line + 1])


def mappings(corpus: Corpus) -> dict[str, list[tuple]]:
    """Expected records per strategy key, sorted, as read back from the files."""
    by_name: dict[str, list] = {}
    by_platform: dict[str, list] = {}
    by_link: dict[str, list] = {}
    for pkg in corpus.packages:
        by_name.setdefault(pkg.name, []).append(pkg)
        by_platform.setdefault(pkg.platform, []).append(pkg)
        link = repo_link(pkg.url)
        if link:
            by_link.setdefault(link, []).append(pkg)
    pools = {platform: _Pool(pkgs) for platform, pkgs in by_platform.items()}
    scores: dict[tuple[str, str], float | None] = {}
    out: dict[str, list[tuple]] = {key: [] for key in STRATEGY_VALUES}

    def record(key, cve, pkg, confidence, kind, payload):
        out[key].append((STRATEGY_VALUES[key], cve.cve_id, pkg.key, pkg.platform,
                         confidence, kind, tuple(payload)))

    for cve in corpus.cves:
        summary = cve.summary.lower()
        for product in cve.products:
            for pkg in by_name.get(product, ()):
                aliases, words, _ = LOOKUP.get(pkg.platform, (set(), set(), set()))
                if aliases & cve.targets:
                    record("strict", cve, pkg, 1.0, "product_name_equal", ())
                    continue
                word = next((w for w in sorted(words) if _has_word(w, summary)), None)
                if word is not None:
                    record("strict", cve, pkg, 1.0, "summary_keyword", (word,))

        hits = platform_hits(cve)
        if len(hits) == 1:
            platform = hits.pop()
            claimed = set()
            for product in cve.products:
                names: dict[str, str] = {}
                for pkg in pools[platform].containing(product) if platform in pools else ():
                    names.setdefault(pkg.name, pkg)
                best = None
                for name in names:
                    if (product, name) not in scores:
                        scores[product, name] = similarity(product, name)
                    score = scores[product, name]
                    if score is not None and score >= CUTOFF:
                        rank = (-score, len(name), name)
                        if best is None or rank < best[0]:
                            best = (rank, name, score)
                if best is not None and names[best[1]].key not in claimed:
                    claimed.add(names[best[1]].key)
                    record("fuzzy", cve, names[best[1]], best[2], "fuzzy_score", (product, best[1]))

        links = list(dict.fromkeys(filter(None, map(repo_link, cve.references))))
        claimed = set()
        for link in links:
            for pkg in by_link.get(link, ()):
                if pkg.key not in claimed:
                    claimed.add(pkg.key)
                    record("repository_all", cve, pkg, 1.0, "repo_link", (link,))
        first = next((link for link in links if link in by_link), None)
        if first is not None:
            record("repository_first", cve, by_link[first][0], 1.0, "repo_link", (first,))
    return {key: sorted(records) for key, records in out.items()}


# -- reports ----------------------------------------------------------------

def _ranked(counter: Counter) -> list[tuple]:
    return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))


def _percent_shares(counts: list[int]) -> list[str]:
    """Shares in hundredths of a percent, largest remainder, summing to 100.00."""
    total = sum(counts)
    if total == 0:
        return ["0.00"] * len(counts)
    exact = [Fraction(c * 10000, total) for c in counts]
    cents = [int(f) for f in exact]
    order = sorted(range(len(counts)), key=lambda i: (-(exact[i] - cents[i]), -counts[i], i))
    for i in order[: 10000 - sum(cents)]:
        cents[i] += 1
    return [f"{c // 100}.{c % 100:02d}" for c in cents]


def _share_rows(counter: Counter, top_k: int) -> list[list]:
    ranked = _ranked(counter)
    head = [[label, count] for label, count in ranked[:top_k]]
    if len(ranked) > top_k:
        head.append(["Others", sum(c for _, c in ranked[top_k:])])
    return [row + [share] for row, share in zip(head, _percent_shares([c for _, c in head]))]


def _csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header + ["count", "share"])
    writer.writerows(rows)
    return buf.getvalue()


def _count_rows(counter: Counter) -> list[list]:
    return [[*keys, count, ""] for keys, count in _ranked(counter)]


def reports(corpus: Corpus, expected: dict[str, list[tuple]]) -> dict[str, str]:
    """Expected ``report_*.csv`` texts keyed by file name."""
    packages = corpus.packages
    licensed = Counter(p.license for p in packages if p.license)
    unlicensed = sum(1 for p in packages if not p.license)
    license_rows = _share_rows(licensed, TOP_K_SHARE)
    if unlicensed:
        license_rows.append(["(unspecified)", unlicensed, ""])

    vulnerable_rows, others_rows = [], []
    for key, records in expected.items():
        per_platform: dict[str, set] = {}
        for rec in records:
            per_platform.setdefault(rec[3], set()).add(rec[2])
        ranked = _ranked(Counter({p: len(keys) for p, keys in per_platform.items()}))
        vulnerable_rows += [[key, p, c, ""] for p, c in ranked[:TOP_K_RANKING]]
        if len(ranked) > TOP_K_RANKING:
            others_rows.append([key, "Others", sum(c for _, c in ranked[TOP_K_RANKING:]), ""])
    order = lambda row: (-row[2], row[0], row[1])  # noqa: E731

    year_of = {cve.cve_id: str(cve.year) for cve in corpus.cves}
    mapped: dict[tuple, set] = {}
    for rec in expected["strict"]:
        mapped.setdefault((rec[3], year_of[rec[1]]), set()).add(rec[1])
    links = Counter(filter(None, (repo_link(p.url) for p in packages)))

    return {
        "report_platform_share.csv": _csv(
            ["platform"], _share_rows(Counter(p.platform for p in packages), TOP_K_SHARE)),
        "report_license_distribution.csv": _csv(["license"], license_rows),
        "report_versions_per_year.csv": _csv(
            ["platform", "year"],
            _count_rows(Counter((p, str(y)) for p, y in corpus.versions))),
        "report_cve_per_year.csv": _csv(
            ["year"], _count_rows(Counter((str(c.year),) for c in corpus.cves))),
        "report_vulnerable_packages.csv": _csv(
            ["strategy", "platform"], sorted(vulnerable_rows, key=order) + sorted(others_rows, key=order)),
        "report_mapped_cve_per_year.csv": _csv(
            ["platform", "year"], _count_rows(Counter({k: len(v) for k, v in mapped.items()}))),
        "report_top_repo_links.csv": _csv(
            ["repo_link"], [[link, count, ""] for link, count in _ranked(links)[:TOP_K_RANKING]]),
    }
