"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 6 and 7 depend on external full-scale dumps that are not committed;
they run when the corresponding environment variables point at local copies
and report SKIPPED otherwise (see README, "Full-data reproduction").
"""

import contextlib
import io
import os
import random
import time
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest

from helpers import (
    as_tuple,
    oracle_fuzzy,
    oracle_repository,
    oracle_strict,
    random_corpus,
    run_one,
)
from test_cpe import generate_valid_cpe
from vulnmap.cpe import MalformedCpe, Part, parse_cpe23
from vulnmap.fuzzy import EmptyInput, best_match, normalize, similarity
from vulnmap.ingest import load_cves, load_packages, load_versions, open_text_auto
from vulnmap.match import default_lookup_config, run_all
from vulnmap.report import (
    export_report,
    license_distribution,
    mapped_cve_per_year,
    package_counts,
    platform_project_share,
    top_repo_links,
    versions_per_year,
    vulnerable_package_count,
)
from vulnmap.report import cve_per_year as cve_per_year_report

FIXTURES = Path(__file__).parent / "fixtures"
LOOKUP_CONFIG = default_lookup_config()
LOOKUP = LOOKUP_CONFIG.lookup
ALIASES = {k.lower(): v for k, v in LOOKUP_CONFIG.platform_aliases.items()}

# Published reference values used by the data-gated criteria.
TABLE_CVE_PER_YEAR = {2015: 6602, 2016: 6520, 2017: 18161, 2018: 18213, 2019: 19095}
TABLE_PROJECTS = {"Go": (1818666, "39.45"), "NPM": (1275082, "27.66")}
TABLE_MIT_SHARE = "44.13"
TABLE_NPM_VERSIONS = {"2015": 716207, "2019": 3892909}
TABLE_TOP_REPO = ("github.com/openshift/origin", 1523)


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({title}): PASS")


def load_oracle_corpus():
    with open(FIXTURES / "packages_oracle.csv", encoding="utf-8", newline="") as fh:
        packages = list(load_packages(fh, platform_aliases=ALIASES))
    with open(FIXTURES / "cves_oracle.ndjson", encoding="utf-8") as fh:
        cves = list(load_cves(fh))
    assert len(packages) == 200 and len(cves) == 100
    return packages, cves


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence on 200x100 fixture"):
        started = time.perf_counter()
        packages, cves = load_oracle_corpus()

        got_strict = {as_tuple(r) for r in run_one("strict", packages, cves, LOOKUP)}
        want_strict = oracle_strict(packages, cves, LOOKUP)
        assert got_strict == want_strict

        got_fuzzy = {as_tuple(r) for r in run_one("fuzzy", packages, cves, LOOKUP, cutoff=0.3)}
        want_fuzzy = oracle_fuzzy(packages, cves, LOOKUP, 0.3)
        assert got_fuzzy == want_fuzzy

        for mode in ("all", "first"):
            got_repo = {as_tuple(r) for r in run_one(f"repository_{mode}", packages, cves)}
            assert got_repo == oracle_repository(packages, cves, mode)

        # The fixture must actually exercise the clauses.
        assert len(got_strict) >= 15
        assert len(got_fuzzy) >= 10
        assert len({as_tuple(r) for r in run_one("repository_all", packages, cves)}) >= 10

        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"runtime budget exceeded: {elapsed:.2f}s"


def _distinct_counts(results):
    counts: dict[str, set] = {}
    for r in results:
        counts.setdefault(r.platform, set()).add(r.package_key)
    return {platform: len(keys) for platform, keys in counts.items()}


def test_criterion_2_mode_dominance():
    with criterion(2, "FirstLink subset of AllLinks on 100+ corpora"):
        corpora = [load_oracle_corpus()]
        rng = random.Random(20230501)
        corpora.extend(random_corpus(rng, 50, 50) for _ in range(100))
        dominated = 0
        for packages, cves in corpora:
            all_links = run_one("repository_all", packages, cves)
            first = run_one("repository_first", packages, cves)
            assert {as_tuple(r) for r in first} <= {as_tuple(r) for r in all_links}
            all_counts = _distinct_counts(all_links)
            first_counts = _distinct_counts(first)
            for platform, count in first_counts.items():
                assert count <= all_counts.get(platform, 0)
            if sum(first_counts.values()) < sum(all_counts.values()):
                dominated += 1
        # Shared repositories must make the strict inequality show up somewhere.
        assert dominated >= 1


def test_criterion_3_cpe_parser_suite():
    with criterion(3, "CPE grammar cases and 10^4 round-trips"):
        accepted = [
            ("cpe:2.3:a:lodash:lodash:4.17.11:*:*:*:*:node.js:*:*",
             {"product": "lodash", "target_sw": "node.js"}),
            ("cpe:2.3:a:acme:foo\\:bar:1.0:*:*:*:*:*:*:*", {"product": "foo:bar"}),
            ("cpe:2.3:a:acme:tool\\-kit:*:*:*:*:*:*:*:*", {"product": "tool-kit"}),
            ("cpe:2.3:o:microsoft:windows_10:10.0:*:*:*:*:*:x64:*",
             {"part": Part.OPERATING_SYSTEM, "target_hw": "x64"}),
            ("cpe:2.3:h:intel:cpu:-:*:*:*:*:*:*:*", {"part": Part.HARDWARE, "version": "-"}),
            ("cpe:2.3:*:v:p:1:*:*:*:*:*:*:*", {"part": Part.ANY}),
            ("cpe:2.3:-:v:p:1:*:*:*:*:*:*:*", {"part": Part.NOT_APPLICABLE}),
            ("cpe:2.3:a:UPPER:MiXeD:1:*:*:*:*:Java:*:*",
             {"vendor": "upper", "product": "mixed", "target_sw": "java"}),
        ]
        rejected = [
            "",
            "garbage",
            "cpe:/a:acme:foo:1.0",
            "cpe:2.2:a:v:p:1:*:*:*:*:*:*:*",
            "cpe:2.3:a:acme:foo",
            "cpe:2.3:a:v:p:1:*:*:*:*:*:*:*:extra",
            "cpe:2.3:q:v:p:1:*:*:*:*:*:*:*",
            "CPE:2.3:a:v:p:1:*:*:*:*:*:*:*",
        ]
        failures = []
        for raw, expectations in accepted:
            try:
                record = parse_cpe23(raw)
            except MalformedCpe:
                failures.append(raw)
                continue
            for field_name, value in expectations.items():
                if getattr(record, field_name) != value:
                    failures.append(f"{raw}: {field_name}")
        for raw in rejected:
            try:
                parse_cpe23(raw)
            except MalformedCpe:
                continue
            failures.append(f"accepted malformed: {raw}")
        assert failures == []

        rng = random.Random(20230209)
        for _ in range(10_000):
            raw = generate_valid_cpe(rng)
            record = parse_cpe23(raw)
            assert parse_cpe23(record.raw) == record


def test_criterion_4_fuzzy_properties():
    with criterion(4, "fuzzy properties, best_match oracle, cutoff floor"):
        rng = random.Random(606)
        alphabet = "abcdemnorstz-._ 0123456789"
        checked = 0
        while checked < 10_000:
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            if not normalize(a) or not normalize(b):
                continue
            checked += 1
            score = similarity(a, b)
            assert 0.0 <= score <= 1.0
            assert score == similarity(b, a)
            assert similarity(a, a) == 1.0

        for _ in range(1000):
            query = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
            if not normalize(query):
                continue
            candidates = [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
                for _ in range(rng.randint(0, 8))
            ]
            cutoff = rng.choice([0.0, 0.3, 0.6])
            got = best_match(query, candidates, cutoff)
            best = None
            for cand in candidates:
                try:
                    score = similarity(query, cand)
                except EmptyInput:
                    continue
                if score < cutoff:
                    continue
                order = (-score, len(cand), cand)
                if best is None or order < best[0]:
                    best = (order, cand, score)
            assert got == (None if best is None else (best[1], best[2]))

        packages, cves = load_oracle_corpus()
        emitted = run_one("fuzzy", packages, cves, LOOKUP, cutoff=0.3)
        assert emitted, "fixture must produce fuzzy results"
        assert all(r.confidence >= 0.3 for r in emitted)
        for _ in range(30):
            rpackages, rcves = random_corpus(rng, 40, 40)
            assert all(
                r.confidence >= 0.3
                for r in run_one("fuzzy", rpackages, rcves, LOOKUP, cutoff=0.3)
            )


def test_criterion_5_report_arithmetic():
    with criterion(5, "share sums, golden bytes, distinct-count invariants"):
        with open(FIXTURES / "packages_small.csv", encoding="utf-8", newline="") as fh:
            small = list(load_packages(fh, platform_aliases=ALIASES))

        # Byte-identical export, twice, against the hand-written golden.
        for _ in range(2):
            out = io.StringIO()
            export_report(platform_project_share(package_counts(small)), "csv", out)
            golden = (FIXTURES / "golden_platform_share.csv").read_text(encoding="utf-8")
            assert out.getvalue() == golden

        rng = random.Random(515)
        corpora = [(small, [])]
        corpora.extend(random_corpus(rng, 50, 50) for _ in range(100))
        mapped_rows = 0
        for packages, cves in corpora:
            counts = package_counts(packages)
            for report in (platform_project_share(counts), license_distribution(counts)):
                shares = [r.share for r in report.rows if r.share is not None]
                if shares:
                    assert abs(sum(shares) - Decimal("100.00")) <= Decimal("0.01")
            if not cves:
                continue
            outcome = run_all(packages, cves, LOOKUP)
            per_platform = {}
            for pkg in packages:
                per_platform.setdefault(pkg.platform, set()).add(pkg.package_key)
            vreport = vulnerable_package_count(outcome.results, top_k=1000)
            for row in vreport.rows:
                strategy_key, platform = row.keys
                if platform != "Others":
                    assert row.count <= len(per_platform.get(platform, ()))
            cves_per_year = {}
            for cve in cves:
                cves_per_year[str(cve.year)] = cves_per_year.get(str(cve.year), 0) + 1
            mreport = mapped_cve_per_year(
                outcome.results["strict"], {cve.cve_id: cve.year for cve in cves})
            for row in mreport.rows:
                _, year = row.keys
                assert row.count <= cves_per_year[year]
            mapped_rows += len(mreport.rows)
        assert mapped_rows  # the per-year bound was checked on some rows


def _env_path(name: str) -> Path | None:
    value = os.environ.get(name)
    if not value:
        return None
    path = Path(value)
    return path if path.exists() else None


def test_criterion_6_full_data_tables():
    projects = _env_path("VULNMAP_LIBRARIESIO_PROJECTS")
    versions = _env_path("VULNMAP_LIBRARIESIO_VERSIONS")
    if projects is None or versions is None:
        print(
            "\nACCEPTANCE 6 (January 2020 full-dump tables): SKIPPED - set "
            "VULNMAP_LIBRARIESIO_PROJECTS and VULNMAP_LIBRARIESIO_VERSIONS "
            "to the extracted dump CSVs"
        )
        pytest.skip("full Libraries.io dump not available")
    with criterion(6, "January 2020 full-dump tables"):
        started = time.perf_counter()
        with open_text_auto(projects) as fh:
            counts = package_counts(load_packages(fh, platform_aliases=ALIASES))
        share = platform_project_share(counts)
        rows = {r.keys[0]: r for r in share.rows}
        for platform, (count, share_text) in TABLE_PROJECTS.items():
            assert rows[platform].count == count
            assert rows[platform].share == Decimal(share_text)
        licenses = license_distribution(counts)
        mit = next(r for r in licenses.rows if r.keys[0] == "MIT")
        assert mit.count == 1637451
        assert mit.share == Decimal(TABLE_MIT_SHARE)
        repo_report = top_repo_links(counts, k=10)
        top = {r.keys[0]: r.count for r in repo_report.rows}
        assert top[TABLE_TOP_REPO[0]] == TABLE_TOP_REPO[1]
        # The versions dump has tens of millions of rows: count the stream, as ingest does.
        with open_text_auto(versions) as fh:
            cells = Counter(load_versions(fh, platform_aliases=ALIASES))
        report = versions_per_year((*cell, count) for cell, count in cells.items())
        per_cell = {r.keys: r.count for r in report.rows}
        for year, count in TABLE_NPM_VERSIONS.items():
            assert per_cell[("NPM", year)] == count
        assert time.perf_counter() - started < 1800, "runtime budget exceeded"


def test_criterion_7_cve_snapshot_substitute_checks():
    snapshot = _env_path("VULNMAP_CVE_SNAPSHOT")
    if snapshot is None:
        print(
            "\nACCEPTANCE 7 (frozen CVE snapshot substitute checks): SKIPPED - "
            "set VULNMAP_CVE_SNAPSHOT to a CIRCL-style CVE dump"
        )
        pytest.skip("frozen CVE snapshot not available")
    with criterion(7, "frozen CVE snapshot substitute checks"):
        with open_text_auto(snapshot) as fh:
            report = cve_per_year_report({cve.cve_id: cve.year for cve in load_cves(fh)})
        counts = {int(r.keys[0]): r.count for r in report.rows}
        for year, published in TABLE_CVE_PER_YEAR.items():
            got = counts.get(year, 0)
            assert abs(got - published) <= 0.10 * published, (
                f"{year}: {got} vs published {published}"
            )

        projects = _env_path("VULNMAP_LIBRARIESIO_PROJECTS")
        if projects is None:
            print(
                "ACCEPTANCE 7 trend sub-check: SKIPPED - needs "
                "VULNMAP_LIBRARIESIO_PROJECTS as well"
            )
            return
        # Keep the full snapshot in memory only in reduced form: the strict
        # strategy never looks at reference URLs.
        with open_text_auto(snapshot) as fh:
            cves = [
                cve.__class__(cve.cve_id, cve.summary, (), cve.published, cve.cpes)
                for cve in load_cves(fh)
            ]
        with open_text_auto(projects) as fh:
            packages = list(load_packages(fh, platform_aliases=ALIASES))
        strict = run_one("strict", packages, cves, LOOKUP)
        yearly = mapped_cve_per_year(strict, {cve.cve_id: cve.year for cve in cves})
        series: dict[str, dict[int, int]] = {}
        for row in yearly.rows:
            platform, year = row.keys
            series.setdefault(platform, {})[int(year)] = row.count
        top5 = sorted(series, key=lambda p: -sum(series[p].values()))[:5]
        nondecreasing = 0
        for platform in top5:
            values = [series[platform].get(y, 0) for y in range(2017, 2022)]
            if all(a <= b for a, b in zip(values, values[1:])):
                nondecreasing += 1
        if nondecreasing < 4:
            print(
                f"ACCEPTANCE 7 trend deviation reported: only {nondecreasing} of "
                f"{len(top5)} top-platform series are nondecreasing over 2017-2021: "
                + "; ".join(
                    f"{p}={[series[p].get(y, 0) for y in range(2017, 2022)]}" for p in top5
                )
            )
