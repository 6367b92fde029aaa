"""Seeded generator of inputs shaped like the Libraries.io and CIRCL dumps.

``generate`` writes a package CSV, a versions CSV and a CVE dump for one
workload and seed, and returns a ``Corpus``: the records the program should
end up with after ingest (names normalised, rejected rows dropped, duplicate
CVE ids resolved). ``expect.py`` derives the expected outputs from the
corpus, without parsing the generated files.

Quantities that set how much work a run does (platform of each package and
of each CVE hint, products per CVE, product kinds) are drawn as exact
shuffled allocations, not independent draws, so that two seeds give the
program the same amount of work. The one exception: where a workload's
products include package names, the first product of every entry that names
a platform is a package of that platform, so fuzzy matching always has work.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

# Default platforms (canonical names) and their share of packages. No
# per-platform project counts of the Libraries.io dump are at hand, so these
# shares are an assumption: NPM by far the largest registry, then PyPI and
# Maven, with Packagist, NuGet, RubyGems and Go each smaller. They set the size
# of each platform's pool, and so the cost of the fuzzy candidate scan for a
# CVE hinted to that platform (hints are drawn with the same shares).
PLATFORM_SHARE = {
    "NPM": 0.40, "Pypi": 0.15, "Maven": 0.14, "Packagist": 0.10,
    "NuGet": 0.08, "Ruby": 0.07, "Go": 0.06,
}
EXTRA_PLATFORM = "Cargo"  # not in the lookup table: ingested, never platform-gated
RUBY_ALIAS = "Rubygems"   # CSV label aliased to Ruby by the default lookup

# Summary phrases and reference URLs that name exactly one platform.
HINT_WORDS = {
    "NPM": "npm", "Pypi": "PyPI", "Maven": "Maven", "Packagist": "Composer",
    "NuGet": "NuGet", "Ruby": "RubyGems", "Go": "Golang",
}
HINT_URLS = {
    "NPM": "https://www.npmjs.com/package/{}", "Pypi": "https://pypi.org/project/{}/",
    "Maven": "https://mvnrepository.com/artifact/{}", "Packagist": "https://packagist.org/packages/{}",
    "NuGet": "https://www.nuget.org/packages/{}", "Ruby": "https://rubygems.org/gems/{}",
    "Go": "https://pkg.go.dev/{}",
}
TARGET_SW = {
    "NPM": "node.js", "Pypi": "python", "Maven": "java", "Packagist": "php",
    "NuGet": ".net", "Ruby": "rails", "Go": "golang",
}
# Stems never equal a lookup keyword, so only planted hints name a platform.
LOOKUP_WORDS = {"npm", "node", "pypi", "pip", "maven", "packagist", "composer",
                "nuget", "rubygems", "golang"}

ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t",
          "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "kr", "pl", "sh", "st", "th", "tr")
VOWELS = ("a", "e", "i", "o", "u", "y", "ai", "ea", "ou")
CODAS = ("", "", "", "n", "r", "s", "x", "l", "t")
PREFIXES = ("lib", "open", "micro", "easy", "fast")
SUFFIXES = ("-js", "-core", "-utils", "-cli", "2", "-plugin", "-sdk")
# Assumed license weights, MIT the most common and ~15% without a license.
LICENSES = (("MIT", 40), ("Apache-2.0", 15), ("", 15), ("ISC", 8), ("BSD-3-Clause", 6),
            ("GPL-3.0", 4), ("BSD-2-Clause", 3), ("MPL-2.0", 2), ("LGPL-2.1", 2),
            ("MIT,Apache-2.0", 2), ("Unlicense", 1), ("EPL-1.0", 1), ("AGPL-3.0", 1))
VULNS = ("Cross-site scripting (XSS)", "SQL injection", "A buffer overflow", "Path traversal",
         "Prototype pollution", "Improper input validation", "An open redirect",
         "Uncontrolled resource consumption")
IMPACTS = ("execute arbitrary code", "read arbitrary files", "cause a denial of service",
           "inject arbitrary web script or HTML", "bypass authentication")

PACKAGE_HEADER = [
    "ID", "Platform", "Name", "Created Timestamp", "Updated Timestamp", "Description",
    "Keywords", "Homepage URL", "Licenses", "Repository URL", "Versions Count", "SourceRank",
    "Latest Release Publish Timestamp", "Latest Release Number", "Package Manager ID",
    "Dependent Projects Count", "Language", "Status", "Last synced Timestamp",
    "Dependent Repositories Count", "Repository ID",
]
VERSION_HEADER = ["ID", "Platform", "Project Name", "Project ID", "Number",
                  "Published Timestamp", "Created Timestamp", "Updated Timestamp"]


@dataclass(frozen=True)
class Spec:
    """Sizes and shape of one workload."""

    packages: int                      # accepted package rows
    versions_per_package: float
    cves: int                          # accepted CVE entries
    cpes_per_cve: int                  # CPE strings per entry, split over its products
    products_per_cve: tuple[int, ...]  # allocated in equal shares over the entries
    product_mix: tuple[str, ...]       # "name" | "stem" | "fresh", in equal shares
    stems: int                         # vocabulary behind names, keywords and stem products
    hinted_share: float                # entries that name exactly one platform
    compact_array: bool                # one-line JSON array (else NDJSON)


@dataclass(frozen=True)
class Package:
    key: str
    platform: str
    name: str
    keywords: tuple[str, ...]
    license: str
    url: str


@dataclass(frozen=True)
class Cve:
    cve_id: str
    summary: str
    references: tuple[str, ...]
    year: int                          # published year, else the year in the id
    products: tuple[str, ...]          # distinct well-formed products, first-seen order
    targets: frozenset[str]


@dataclass
class Corpus:
    packages: list[Package]            # source order
    versions: list[tuple[str, int]]    # (platform, year) of each accepted version row
    cves: list[Cve]                    # source order
    packages_path: Path
    versions_path: Path
    cves_path: Path


def _allocate(total: int, weights: dict) -> list:
    """Exactly ``total`` labels split by weight (largest remainder), unshuffled."""
    norm = sum(weights.values())
    exact = {k: total * w / norm for k, w in weights.items()}
    counts = {k: int(v) for k, v in exact.items()}
    for k in sorted(exact, key=lambda k: counts[k] - exact[k])[: total - sum(counts.values())]:
        counts[k] += 1
    return [k for k, n in counts.items() for _ in range(n)]


def _spread(rng: random.Random, total: int, values: tuple) -> list:
    """``total`` items cycling through ``values`` in equal shares, shuffled."""
    out = [values[i % len(values)] for i in range(total)]
    rng.shuffle(out)
    return out


def _stem(rng: random.Random, syllables: int = 2) -> str:
    while True:
        s = "".join(rng.choice(ONSETS) + rng.choice(VOWELS) for _ in range(syllables))
        s += rng.choice(CODAS)
        if (syllables > 2 or 4 <= len(s) <= 6) and s not in LOOKUP_WORDS:
            return s


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < size:
        seen.setdefault(_stem(rng))
    return list(seen)


def _base_name(rng: random.Random, stems: list[str]) -> str:
    r = rng.random()
    if r < 0.7:
        return rng.choice(stems) + rng.choice("--_") + rng.choice(stems)
    if r < 0.8:
        return rng.choice(stems)
    if r < 0.9:
        return rng.choice(PREFIXES) + rng.choice(stems)
    return rng.choice(stems) + rng.choice(SUFFIXES)


def _full_name(rng: random.Random, platform: str, base: str, stems: list[str]) -> str:
    if platform == "Maven":
        return f"{rng.choice(('org', 'com', 'io'))}.{rng.choice(stems)}:{base}"
    if platform == "Go":
        return f"github.com/{rng.choice(stems)}/{base}"
    if platform == "Packagist":
        return f"{rng.choice(stems)}/{base}"
    return base


def _repo_url(rng: random.Random, owner: str, repo: str) -> str:
    host = rng.choices(("github.com", "gitlab.com", "bitbucket.org"), (80, 12, 8))[0]
    form = rng.randrange(5)
    if form == 0:
        return f"https://{host}/{owner}/{repo}"
    if form == 1:
        return f"git+https://{host}/{owner}/{repo}.git"
    if form == 2:
        return f"https://www.{host}/{owner.capitalize()}/{repo}/tree/master"
    if form == 3:
        return f"http://{host}/{owner}/{repo}.git"
    return f"https://{host}/{owner}/{repo}#readme"


def _int(rng: random.Random, low: int, high: int) -> int:
    """Uniform integer in [low, high]; cheaper than ``randint``."""
    return low + int(rng.random() * (high - low + 1))


def _timestamp(rng: random.Random, year: int) -> str:
    t = int(rng.random() * 12 * 28 * 86400)
    return (f"{year}-{1 + t % 12:02d}-{1 + t // 12 % 28:02d} "
            f"{t // 336 % 24:02d}:{t // 8064 % 60:02d}:{t // 483840 % 60:02d} UTC")


def _write_packages(rng: random.Random, spec: Spec, stems: list[str], path: Path) -> list[Package]:
    platforms = _allocate(spec.packages, {**PLATFORM_SHARE, EXTRA_PLATFORM: 0.002})
    rng.shuffle(platforms)
    licenses = [label for label, weight in LICENSES for _ in range(weight)]
    packages: list[Package] = []
    rows: list[list[str]] = []
    urls: list[str] = []
    for i, platform in enumerate(platforms):
        key = str(100000 + 3 * i)
        base = _base_name(rng, stems)
        name = _full_name(rng, platform, base, stems)
        raw_name = name
        if platform == "NuGet" and rng.random() < 0.3:
            raw_name = name.capitalize()
        elif rng.random() < 0.005:
            raw_name = f" {name} "
        label = platform
        if platform == "Ruby" and rng.random() < 0.05:
            label = RUBY_ALIAS
        keywords = tuple(rng.sample(stems, _int(rng, 0, 3)))
        license_label = rng.choice(licenses)
        # Assumed URL mix: 6% reuse an earlier package's repository, 56% a
        # repository of their own, 18% a homepage, 20% nothing.
        r = rng.random()
        if r < 0.06 and urls:
            url = rng.choice(urls)  # several packages published from one repository
        elif r < 0.62:
            url = _repo_url(rng, rng.choice(stems), base.replace("_", "-"))
            urls.append(url)
        elif r < 0.8:
            url = f"https://{rng.choice(stems)}.example.org/{base}"
        else:
            url = ""
        packages.append(Package(key, platform, name, keywords, license_label, url))
        year = _int(rng, 2010, 2021)
        rows.append([
            key, label, raw_name, _timestamp(rng, year), _timestamp(rng, 2022),
            f"{base.capitalize()} helpers for {rng.choice(stems)}, {rng.choice(stems)} and more",
            ",".join(keywords), f"https://{base}.example.org/", license_label, url,
            str(_int(rng, 1, 40)), str(_int(rng, 0, 30)), _timestamp(rng, year + 1),
            f"{_int(rng, 0, 9)}.{_int(rng, 0, 20)}.{_int(rng, 0, 9)}",
            str(_int(rng, 1, 9999)), str(_int(rng, 0, 500)), "", "", _timestamp(rng, 2022),
            str(_int(rng, 0, 900)), str(_int(rng, 1, 10**7)),
        ])
    # Rows the program rejects: empty names and one short row.
    width = len(PACKAGE_HEADER)
    for j in range(max(3, spec.packages // 1000)):
        bad = list(rows[rng.randrange(len(rows))])
        bad[0], bad[2] = str(100001 + 3 * j), rng.choice(("", "  "))
        rows.insert(rng.randrange(len(rows)), bad)
    rows.insert(rng.randrange(len(rows)), rows[0][: width - 2])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PACKAGE_HEADER)
        writer.writerows(rows)
    return packages


def _write_versions(rng: random.Random, spec: Spec, packages: list[Package], path: Path):
    total = max(10, round(spec.versions_per_package * len(packages)))
    versions: list[tuple[str, int]] = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VERSION_HEADER)
        for i in range(total):
            pkg = rng.choice(packages)
            label = RUBY_ALIAS if pkg.platform == "Ruby" and rng.random() < 0.5 else pkg.platform
            year = _int(rng, 2010, 2021)
            published = _timestamp(rng, year)
            if i % 500 == 7:
                published = rng.choice(("", "unknown"))  # rejected: bad_date
            else:
                versions.append((pkg.platform, year))
            writer.writerow([str(900000 + i), label, pkg.name, pkg.key,
                             f"{_int(rng, 0, 9)}.{_int(rng, 0, 30)}.{_int(rng, 0, 9)}",
                             published, published, published])
    return versions


def _escape(product: str, rng: random.Random) -> str:
    """CPE 2.3 formatted-string escaping: ':' always, other punctuation sometimes."""
    out = product.replace(":", "\\:")
    if rng.random() < 0.1:
        for ch in "./-_":
            out = out.replace(ch, "\\" + ch)
    return out


def _has_repo(pkg: Package) -> bool:
    return bool(pkg.url) and "example.org" not in pkg.url


def _cpe_strings(rng, vendor, product, target, count):
    """(formatted string, 2.2 URI, well-formed?) for ``count`` versions of a product."""
    out = []
    part = "o" if rng.random() < 0.05 else "a"
    for _ in range(count):
        version = f"{_int(rng, 0, 9)}.{_int(rng, 0, 20)}.{_int(rng, 0, 20)}"
        good = f"cpe:2.3:{part}:{vendor}:{_escape(product, rng)}:{version}:*:*:*:*:{target}:*:*"
        uri = f"cpe:/{part}:{vendor}:{product.replace(':', '%3a')}:{version}"
        r = rng.random()
        if r < 0.01:
            out.append((uri, uri, False))  # CPE 2.2 URI in the 2.3 list
        elif r < 0.02:
            out.append((f"cpe:2.3:{part}:{vendor}:{_escape(product, rng)}", uri, False))
        else:
            out.append((good, uri, True))
    return out


def _write_cves(rng: random.Random, spec: Spec, packages: list[Package], stems: list[str],
                path: Path) -> list[Cve]:
    by_platform: dict[str, list[Package]] = {}
    for pkg in packages:
        by_platform.setdefault(pkg.platform, []).append(pkg)
    with_repo = [p for p in packages if _has_repo(p)]
    n_hinted = round(spec.hinted_share * spec.cves)
    hints = _allocate(n_hinted, PLATFORM_SHARE) + [None] * (spec.cves - n_hinted)
    rng.shuffle(hints)
    ks = _spread(rng, spec.cves, spec.products_per_cve)
    kinds = iter(_spread(rng, sum(ks), spec.product_mix))

    cves: list[Cve] = []
    entries: list[dict] = []
    for i, (hint, k) in enumerate(zip(hints, ks)):
        year = _int(rng, 2010, 2021)
        cve_id = f"CVE-{year}-{1000 + i * 7}"
        cpes: list[tuple[str, str, bool]] = []
        products: dict[str, None] = {}
        targets: set[str] = set()
        planted: list[Package] = []
        per_product = max(1, spec.cpes_per_cve // k)
        for j in range(k):
            kind = next(kinds)
            if hint and j == 0 and "name" in spec.product_mix:
                kind = "name"  # every hinted entry names a package of its platform
            vendor = rng.choice(stems)
            target = "*"
            if kind == "name":
                pkg = rng.choice(by_platform[hint] if hint else packages)
                planted.append(pkg)
                product = pkg.name
                # Assumed: 60% of the CPEs naming a package carry its target_sw.
                if pkg.platform in TARGET_SW and rng.random() < 0.6:
                    target = TARGET_SW[pkg.platform]
            elif kind == "stem":
                product = rng.choice(stems)
            else:
                product = _stem(rng, 3)
            strings = _cpe_strings(rng, vendor, product, target, per_product)
            cpes.extend(strings)
            if any(ok for _, _, ok in strings):
                products.setdefault(product)
                if target != "*":
                    targets.add(target)
        product_text = next(iter(products), "the product")
        if hint and rng.random() < 0.8:
            summary = (f"{rng.choice(VULNS)} in the {product_text} package for "
                       f"{HINT_WORDS[hint]} allows attackers to {rng.choice(IMPACTS)}.")
        else:
            summary = (f"{rng.choice(VULNS)} in {rng.choice(stems)} {product_text} before "
                       f"{_int(rng, 1, 9)}.{_int(rng, 0, 9)} allows remote attackers to "
                       f"{rng.choice(IMPACTS)}.")
        references = [f"https://nvd.nist.gov/vuln/detail/{cve_id}"]
        if rng.random() < 0.5:
            references.append(f"https://{rng.choice(stems)}.example.com/advisories/{i}")
        if hint and summary.find(HINT_WORDS[hint]) < 0:
            references.append(HINT_URLS[hint].format(product_text))
        if with_repo and rng.random() < 0.4:
            own = [p for p in planted if _has_repo(p)]
            pkg = own[0] if own and rng.random() < 0.7 else rng.choice(with_repo)
            link = pkg.url.split("#")[0].removesuffix(".git").removesuffix("/tree/master")
            references.append(f"{link}/{rng.choice(('issues', 'pull', 'commit'))}/{_int(rng, 1, 9999)}")
        if rng.random() < 0.1:
            references.append(f"https://github.com/{rng.choice(stems)}/{_stem(rng, 3)}/issues/1")
        entry: dict = {"Modified": f"{year + 1}-02-03T04:05:06"}
        published_year = year + (rng.random() < 0.2)
        if rng.random() < 0.9:
            entry["Published"] = f"{published_year}-{_int(rng, 1, 12):02d}-{_int(rng, 1, 28):02d}T10:15:00"
        else:
            published_year = year
        object_form = rng.random() < 0.5
        entry.update({
            "cvss": round(rng.uniform(2.0, 10.0), 1),
            "cwe": f"CWE-{rng.choice((20, 22, 79, 89, 119, 400, 601, 1321))}",
            "id": cve_id,
            "references": references,
            "summary": summary,
            "vulnerable_configuration": [{"id": s, "title": s} if object_form else s
                                         for s, _, _ in cpes],
            "vulnerable_configuration_cpe_2_2": [uri for _, uri, _ in cpes],
        })
        entries.append(entry)
        cves.append(Cve(cve_id, summary, tuple(references), published_year,
                        tuple(products), frozenset(targets)))
        # Entries the program rejects: a repeated id and a malformed id.
        if rng.random() < 0.005:
            entries.append({"id": rng.choice(cves).cve_id, "summary": "Duplicate entry.",
                            "vulnerable_configuration": []})
        if rng.random() < 0.002:
            entries.append({"id": f"CVE-{year}-12", "summary": "Malformed id."})

    with open(path, "w", encoding="utf-8", newline="") as fh:
        if spec.compact_array:
            fh.write("[")
            fh.write(",".join(json.dumps(e, separators=(",", ":")) for e in entries))
            fh.write("]")
        else:
            for e in entries:
                fh.write(json.dumps(e))
                fh.write("\n")
    return cves


def generate(workload: str, spec: Spec, seed: int, out_dir: Path) -> Corpus:
    """Write the three input files for ``workload`` and ``seed`` into ``out_dir``."""
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    stems = _vocabulary(rng, spec.stems)
    paths = (out_dir / "projects.csv", out_dir / "versions.csv",
             out_dir / ("cves.json" if spec.compact_array else "cves.ndjson"))
    packages = _write_packages(rng, spec, stems, paths[0])
    versions = _write_versions(rng, spec, packages, paths[1])
    cves = _write_cves(rng, spec, packages, stems, paths[2])
    return Corpus(packages, versions, cves, *paths)
