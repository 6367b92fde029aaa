import copy
import io
import json
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import random_corpus
from test_match import mk_cve, mk_pkg
from vulnmap.ingest import load_cves, load_packages, load_versions
from vulnmap.match import default_lookup_config, run_all
from vulnmap.report import (
    Report,
    ReportRow,
    _shares,
    cve_per_year,
    export_report,
    license_distribution,
    mapped_cve_per_year,
    package_counts,
    platform_project_share,
    top_repo_links,
    versions_per_year,
    vulnerable_package_count,
)

FIXTURES = Path(__file__).parent / "fixtures"
ALIASES = {"rubygems": "Ruby"}


def small_packages():
    with open(FIXTURES / "packages_small.csv", encoding="utf-8", newline="") as fh:
        return list(load_packages(fh, platform_aliases=ALIASES))


def small_cves():
    with open(FIXTURES / "cves_small.ndjson", encoding="utf-8") as fh:
        return list(load_cves(fh))


# -- share arithmetic -----------------------------------------------------------


def test_shares_basic():
    assert _shares([3, 1]) == [Decimal("75.00"), Decimal("25.00")]
    assert _shares([2, 2]) == [Decimal("50.00"), Decimal("50.00")]


def test_shares_sum_is_exact_even_for_sevenths():
    shares = _shares([1] * 7)
    assert sum(shares) == Decimal("100.00")
    assert sorted(set(shares)) == [Decimal("14.28"), Decimal("14.29")]


def test_shares_match_published_topline_values():
    # Project counts as published for the January 2020 snapshot; the two
    # quoted checkpoints (Go 39.45, NPM 27.66) must reproduce exactly.
    counts = [1818666, 1275082, 313278, 231690, 199447, 184871, 161608, 425020]
    shares = _shares(counts)
    assert shares[0] == Decimal("39.45")
    assert shares[1] == Decimal("27.66")
    assert shares[2] == Decimal("6.80")
    assert shares[3] == Decimal("5.03")
    assert shares[4] == Decimal("4.33")
    assert shares[5] == Decimal("4.01")
    assert shares[7] == Decimal("9.22")
    assert sum(shares) == Decimal("100.00")
    # License table checkpoint: MIT 44.13.
    license_counts = [1637451, 848475, 332676, 298626, 140806, 63890, 51517, 336822]
    assert _shares(license_counts)[0] == Decimal("44.13")


def test_shares_random_sum_invariant():
    rng = random.Random(12)
    for _ in range(200):
        counts = [rng.randint(1, 10_000) for _ in range(rng.randint(1, 12))]
        shares = _shares(counts)
        assert sum(shares) == Decimal("100.00")
        assert all(Decimal("0.00") <= s <= Decimal("100.00") for s in shares)


def _reference_shares(counts: list[int]) -> list[Decimal]:
    """Largest-remainder apportionment over exact fractions, ties by count then position."""
    total = sum(counts)
    if total == 0:
        return [Decimal("0.00")] * len(counts)
    exact = [Fraction(c * 10000, total) for c in counts]
    cents = [int(f) for f in exact]
    order = sorted(range(len(counts)), key=lambda i: (cents[i] - exact[i], -counts[i], i))
    for i in order[: 10000 - sum(cents)]:
        cents[i] += 1
    return [Decimal(c).scaleb(-2) for c in cents]


def test_shares_equal_fraction_reference_on_random_counts():
    rng = random.Random(14)
    for _ in range(2000):
        n = rng.randint(1, 12)
        # Small values repeat counts, so rows tie on remainder and on count.
        high = rng.choice((3, 50, 10_000, 10**9))
        counts = [rng.randint(0, high) for _ in range(n)]
        if rng.random() < 0.3:
            counts = [counts[0]] * n
        assert _shares(counts) == _reference_shares(counts), counts


# -- platform share --------------------------------------------------------------


def test_platform_share_arithmetic():
    packages = [mk_pkg(f"p{i}", "A", f"a{i}") for i in range(3)]
    packages.append(mk_pkg("p9", "B", "b0"))
    report = platform_project_share(package_counts(packages))
    assert [(r.keys, r.count, r.share) for r in report.rows] == [
        (("A",), 3, Decimal("75.00")),
        (("B",), 1, Decimal("25.00")),
    ]


def test_platform_share_others_bucket():
    packages = []
    counts = {f"P{i:02d}": 12 - i for i in range(10)}  # P00:12 ... P09:3
    for platform, n in counts.items():
        packages.extend(mk_pkg(f"{platform}-{j}", platform, f"n{j}") for j in range(n))
    report = platform_project_share(package_counts(packages), top_k=7)
    labels = [r.keys[0] for r in report.rows]
    assert labels == [f"P{i:02d}" for i in range(7)] + ["Others"]
    # Bottom three platforms: 5 + 4 + 3.
    assert report.rows[-1].count == 12
    assert sum(r.share for r in report.rows) == Decimal("100.00")


def test_platform_share_fixture_golden_bytes():
    report = platform_project_share(package_counts(small_packages()))
    out = io.StringIO()
    export_report(report, "csv", out)
    golden = (FIXTURES / "golden_platform_share.csv").read_text(encoding="utf-8")
    assert out.getvalue() == golden


def test_platform_share_no_others_when_few_platforms():
    packages = [mk_pkg("p1", "A", "x"), mk_pkg("p2", "B", "y")]
    report = platform_project_share(package_counts(packages), top_k=7)
    assert [r.keys[0] for r in report.rows] == ["A", "B"]


# -- license distribution ----------------------------------------------------------


def test_license_tie_broken_lexicographically():
    packages = [
        mk_pkg("p1", "A", "a", license="MIT"),
        mk_pkg("p2", "A", "b", license="MIT"),
        mk_pkg("p3", "A", "c", license="GPL-3.0"),
        mk_pkg("p4", "A", "d", license="GPL-3.0"),
    ]
    report = license_distribution(package_counts(packages))
    assert [(r.keys[0], r.count, r.share) for r in report.rows] == [
        ("GPL-3.0", 2, Decimal("50.00")),
        ("MIT", 2, Decimal("50.00")),
    ]


def test_license_unspecified_row_not_ranked():
    packages = [
        mk_pkg("p1", "A", "a", license="MIT"),
        mk_pkg("p2", "A", "b", license=""),
    ]
    report = license_distribution(package_counts(packages))
    assert report.rows[0] == ReportRow(("MIT",), 1, Decimal("100.00"))
    assert report.rows[1] == ReportRow(("(unspecified)",), 1, None)
    # Shares over licensed packages only still sum to 100.
    assert sum(r.share for r in report.rows if r.share is not None) == Decimal("100.00")


def test_license_fixture_golden_bytes():
    report = license_distribution(package_counts(small_packages()))
    out = io.StringIO()
    export_report(report, "csv", out)
    golden = (FIXTURES / "golden_license_distribution.csv").read_text(encoding="utf-8")
    assert out.getvalue() == golden


# -- package counts ----------------------------------------------------------------


def test_package_counts_fold_any_iterable():
    packages = small_packages()
    counts = package_counts(iter(packages))
    assert counts == package_counts(packages)
    assert counts.platforms == Counter(p.platform for p in packages)
    assert counts.licenses == Counter(p.license for p in packages)
    assert counts.licenses[""] == 4
    assert counts.repo_links == Counter(p.repo_link for p in packages if p.repo_link)


@pytest.mark.parametrize("build", [platform_project_share, license_distribution, top_repo_links])
def test_package_reports_leave_their_counts_unchanged(build):
    counts = package_counts(small_packages())
    before = copy.deepcopy(counts)
    assert build(counts) == build(counts)
    assert counts == before


# -- versions per year ---------------------------------------------------------------


def _cells(pairs) -> list[tuple]:
    """The ``(platform, year, count)`` cells of ``(platform, year)`` pairs, as ingest counts."""
    return [(*cell, count) for cell, count in sorted(Counter(pairs).items())]


def test_versions_per_year_cells():
    pairs = list(load_versions(io.StringIO(
        "Platform,Project ID,Number,Published Timestamp\n"
        "NPM,1,1.0,2015-01-01\nNPM,1,1.1,2015-06-01\nNPM,1,2.0,2019-01-01\n"
        "Pypi,2,0.1,2019-03-01\nPypi,2,0.2,2019-04-01\nNPM,3,9.9,2019-05-01\n"
    )))
    cells = _cells(pairs)
    assert cells == [("NPM", 2015, 2), ("NPM", 2019, 2), ("Pypi", 2019, 2)]
    report = versions_per_year(cells)
    assert {r.keys: r.count for r in report.rows} == {
        ("NPM", "2015"): 2,
        ("NPM", "2019"): 2,
        ("Pypi", "2019"): 2,
    }
    assert report.metadata["total_versions"] == 6
    # Cells counted apart, as the parts of a split versions CSV are, add up.
    assert versions_per_year(_cells(pairs[:3]) + _cells(pairs[3:])) == report


def test_versions_per_year_empty():
    assert versions_per_year([]).rows == []


# -- cve per year -----------------------------------------------------------------


def test_cve_per_year_id_fallback():
    cves = [
        mk_cve("CVE-2019-0001"),
        mk_cve("CVE-2019-0002"),
        mk_cve("CVE-2020-0001"),
    ]
    cves = [c.__class__(c.cve_id, c.summary, c.references, None, c.cpes) for c in cves]
    report = cve_per_year({c.cve_id: c.year for c in cves})
    assert {r.keys[0]: r.count for r in report.rows} == {"2019": 2, "2020": 1}


def test_cve_per_year_fixture():
    report = cve_per_year({c.cve_id: c.year for c in small_cves()})
    assert {r.keys[0]: r.count for r in report.rows} == {
        "2015": 5, "2016": 6, "2017": 7, "2018": 7, "2019": 9, "2020": 8, "2021": 8,
    }


def test_cve_per_year_empty():
    assert cve_per_year({}).rows == []


# -- vulnerable packages ----------------------------------------------------------


def test_vulnerable_package_count_distinctness():
    packages = [mk_pkg("p1", "NPM", "lodash")]
    cves = [
        mk_cve(f"CVE-2019-000{i}", products=[("lodash", "node.js")]) for i in range(3)
    ]
    lookup = default_lookup_config().lookup
    outcome = run_all(packages, cves, lookup)
    report = vulnerable_package_count({"strict": outcome.results["strict"]})
    assert report.rows == [ReportRow(("strict", "NPM"), 1)]
    assert report.metadata["pair_counts"] == {"strict": {"NPM": 3}}


def test_vulnerable_package_count_never_exceeds_platform_totals():
    rng = random.Random(99)
    lookup = default_lookup_config().lookup
    for _ in range(20):
        packages, cves = random_corpus(rng, 40, 40)
        per_platform = {}
        for pkg in packages:
            per_platform[pkg.platform] = per_platform.get(pkg.platform, 0) + 1
        outcome = run_all(packages, cves, lookup)
        report = vulnerable_package_count(outcome.results, top_k=100)
        for row in report.rows:
            strategy, platform = row.keys
            if platform == "Others":
                continue
            assert row.count <= per_platform[platform]


def test_first_link_counts_never_exceed_all_links():
    rng = random.Random(123)
    lookup = default_lookup_config().lookup
    for _ in range(20):
        packages, cves = random_corpus(rng, 40, 40)
        outcome = run_all(packages, cves, lookup)
        report = vulnerable_package_count(outcome.results, top_k=100)
        counts = {row.keys: row.count for row in report.rows}
        for (strategy, platform), count in counts.items():
            if strategy == "repository_first":
                assert count <= counts.get(("repository_all", platform), 0)


# -- mapped cve per year --------------------------------------------------------------


def test_mapped_cve_counted_once_per_platform_year():
    packages = [mk_pkg("p1", "NPM", "lodash"), mk_pkg("p2", "NPM", "lodash")]
    cves = [mk_cve("CVE-2019-0001", products=[("lodash", "node.js")], year=2019)]
    lookup = default_lookup_config().lookup
    results = run_all(packages, cves, lookup).results["strict"]
    assert len(results) == 2  # two packages mapped
    report = mapped_cve_per_year(results, {c.cve_id: c.year for c in cves})
    assert report.rows == [ReportRow(("NPM", "2019"), 1)]


def test_mapped_cve_per_year_empty():
    assert mapped_cve_per_year([], {c.cve_id: c.year for c in small_cves()}).rows == []


# -- top repo links ---------------------------------------------------------------


def test_top_repo_links_counts_and_clamp():
    packages = [
        mk_pkg(f"p{i}", "NPM", f"n{i}", repo_url="https://github.com/big/mono")
        for i in range(4)
    ]
    packages.append(mk_pkg("p9", "NPM", "solo", repo_url="https://github.com/solo/solo"))
    counts = package_counts(packages)
    report = top_repo_links(counts, k=10)
    assert report.rows[0] == ReportRow(("github.com/big/mono",), 4)
    assert len(report.rows) == 2  # k larger than distinct links: all returned
    report_k1 = top_repo_links(counts, k=1)
    assert len(report_k1.rows) == 1


# -- export -----------------------------------------------------------------------


def test_export_csv_layout():
    report = Report(
        title="t",
        group_columns=["platform"],
        rows=[ReportRow(("NPM",), 3, Decimal("75.00")), ReportRow(("Go",), 1, None)],
        metadata={},
    )
    out = io.StringIO()
    export_report(report, "csv", out)
    assert out.getvalue() == "platform,count,share\nNPM,3,75.00\nGo,1,\n"


def test_export_empty_report_is_header_only():
    report = Report(title="t", group_columns=["year"], rows=[], metadata={})
    out = io.StringIO()
    export_report(report, "csv", out)
    assert out.getvalue() == "year,count,share\n"


def test_export_json_structure():
    report = Report(
        title="t",
        group_columns=["platform"],
        rows=[ReportRow(("NPM",), 3, Decimal("75.00"))],
        metadata={"top_k": 7},
    )
    out = io.StringIO()
    export_report(report, "json", out)
    doc = json.loads(out.getvalue())
    assert doc["rows"] == [{"platform": "NPM", "count": 3, "share": 75.0}]
    assert doc["metadata"] == {"top_k": 7}


def test_export_rejects_unknown_format():
    report = Report(title="t", group_columns=[], rows=[], metadata={})
    with pytest.raises(ValueError):
        export_report(report, "xml", io.StringIO())


def test_export_byte_identical_across_runs(tmp_path):
    counts = package_counts(small_packages())
    for fmt in ("csv", "json"):
        a = tmp_path / f"a.{fmt}"
        b = tmp_path / f"b.{fmt}"
        export_report(platform_project_share(counts), fmt, a)
        export_report(platform_project_share(counts), fmt, b)
        assert a.read_bytes() == b.read_bytes()


def test_ranked_rows_sorted_by_count_then_key():
    rng = random.Random(321)
    for _ in range(20):
        packages, _ = random_corpus(rng, 50, 5)
        report = platform_project_share(package_counts(packages), top_k=3)
        ranked = [r for r in report.rows if r.keys[0] != "Others"]
        ordered = sorted(ranked, key=lambda r: (-r.count, r.keys))
        assert ranked == ordered
