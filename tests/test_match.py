import json
import random
from datetime import date

import pytest

from helpers import (
    as_tuple,
    oracle_fuzzy,
    oracle_repository,
    oracle_strict,
    random_corpus,
)
from vulnmap.cpe import parse_cpe23
from vulnmap.fuzzy import similarity
from vulnmap.ingest import CveRecord, PackageRecord, extract_repo_ref
from vulnmap.match import (
    FUZZY_SCORE,
    PRODUCT_NAME_EQUAL,
    REPO_LINK,
    SUMMARY_KEYWORD,
    PlatformLookup,
    Strategy,
    default_lookup_config,
    extract_reference_links,
    infer_platform,
    load_lookup_config,
    partial_fuzzy_map,
    repository_map,
    run_all,
    strict_name_map,
)

LOOKUP = default_lookup_config().lookup


def mk_pkg(key, platform, name, keywords=(), repo_url="", license=""):
    return PackageRecord(
        package_key=key,
        platform=platform,
        name=name,
        keywords=tuple(keywords),
        license=license,
        repo=extract_repo_ref(repo_url),
    )


def mk_cve(cve_id, summary="", refs=(), products=(), year=2019):
    cpes = tuple(
        parse_cpe23(f"cpe:2.3:a:acme:{product}:*:*:*:*:*:{target}:*:*")
        for product, target in products
    )
    return CveRecord(
        cve_id=cve_id,
        summary=summary,
        references=tuple(refs),
        published=date(year, 1, 1),
        cpes=cpes,
    )


# -- strict -------------------------------------------------------------------


def test_strict_target_sw_gate():
    packages = [mk_pkg("p1", "NPM", "lodash"), mk_pkg("p2", "Pypi", "lodash")]
    cves = [mk_cve("CVE-2019-0001", products=[("lodash", "node.js")])]
    results = strict_name_map(packages, cves, LOOKUP)
    assert len(results) == 1
    r = results[0]
    assert (r.strategy, r.package_key, r.platform, r.confidence) == (
        Strategy.STRICT_NAME, "p1", "NPM", 1.0,
    )
    assert r.evidence.kind == PRODUCT_NAME_EQUAL


def test_strict_summary_gate():
    packages = [mk_pkg("p1", "NPM", "axios")]
    cves = [mk_cve("CVE-2019-0002", summary="The npm package axios is vulnerable.",
                   products=[("axios", "*")])]
    results = strict_name_map(packages, cves, LOOKUP)
    assert len(results) == 1
    assert results[0].evidence.kind == SUMMARY_KEYWORD
    assert results[0].evidence.payload == ("npm",)


def test_strict_requires_some_gate():
    packages = [mk_pkg("p1", "NPM", "lodash")]
    cves = [mk_cve("CVE-2019-0003", summary="A flaw.", products=[("lodash", "windows")])]
    assert strict_name_map(packages, cves, LOOKUP) == []


def test_strict_summary_keyword_needs_word_boundary():
    packages = [mk_pkg("p1", "Go", "mux")]
    # "golang" appears only inside another word: no gate.
    cves = [mk_cve("CVE-2019-0004", summary="hypergolangish text", products=[("mux", "*")])]
    assert strict_name_map(packages, cves, LOOKUP) == []


def test_strict_go_full_path_misses_bare_product():
    packages = [mk_pkg("g1", "Go", "github.com/owner/repo")]
    cves = [mk_cve("CVE-2019-0005", products=[("repo", "go")])]
    assert strict_name_map(packages, cves, LOOKUP) == []
    # Extension flag: last-segment comparison recovers the match.
    recovered = strict_name_map(packages, cves, LOOKUP, go_last_segment=True)
    assert [r.package_key for r in recovered] == ["g1"]


def test_strict_multi_product_maps_multiple_packages():
    packages = [mk_pkg("p1", "NPM", "lodash"), mk_pkg("p2", "NPM", "lodash-es")]
    cves = [mk_cve("CVE-2019-0006",
                   products=[("lodash", "node.js"), ("lodash-es", "node.js")])]
    results = strict_name_map(packages, cves, LOOKUP)
    assert sorted(r.package_key for r in results) == ["p1", "p2"]


def test_strict_duplicate_names_all_match():
    packages = [mk_pkg("p1", "NPM", "lodash"), mk_pkg("p2", "NPM", "lodash")]
    cves = [mk_cve("CVE-2019-0007", products=[("lodash", "node.js")])]
    results = strict_name_map(packages, cves, LOOKUP)
    assert sorted(r.package_key for r in results) == ["p1", "p2"]


# -- platform inference ---------------------------------------------------------


def test_infer_platform_summary_keyword():
    cve = mk_cve("CVE-2019-0010", summary="... the npm package foo ...")
    assert infer_platform(cve, LOOKUP) == "NPM"


def test_infer_platform_reference_host():
    cve = mk_cve("CVE-2019-0011", refs=["https://pypi.org/project/foo/"])
    assert infer_platform(cve, LOOKUP) == "Pypi"


def test_infer_platform_ambiguous():
    cve = mk_cve("CVE-2019-0012", summary="mentions npm and maven together")
    tallies = {}
    assert infer_platform(cve, LOOKUP, tallies) is None
    assert tallies == {"ambiguous_platform": 1}


def test_infer_platform_none():
    cve = mk_cve("CVE-2019-0013", summary="no ecosystem hints at all")
    tallies = {}
    assert infer_platform(cve, LOOKUP, tallies) is None
    assert tallies == {}


# -- partial fuzzy ----------------------------------------------------------------


def test_fuzzy_exact_beats_superstring():
    packages = [
        mk_pkg("p1", "NPM", "react"),
        mk_pkg("p2", "NPM", "create-react-app"),
        mk_pkg("p3", "NPM", "unrelated"),
    ]
    cves = [mk_cve("CVE-2019-0020", summary="the npm package react mishandles props",
                   products=[("react", "*")])]
    results = partial_fuzzy_map(packages, cves, LOOKUP, cutoff=0.3)
    assert len(results) == 1
    r = results[0]
    assert (r.package_key, r.confidence) == ("p1", 1.0)
    assert r.evidence.kind == FUZZY_SCORE
    assert r.evidence.payload == ("react", "react")


def test_fuzzy_without_platform_yields_nothing():
    packages = [mk_pkg("p1", "NPM", "react")]
    cves = [mk_cve("CVE-2019-0021", summary="no hints", products=[("react", "*")])]
    assert partial_fuzzy_map(packages, cves, LOOKUP) == []


def test_fuzzy_keyword_containment_counts_as_candidate():
    packages = [mk_pkg("p1", "NPM", "dashboard-kit", keywords=("lodash", "ui"))]
    cves = [mk_cve("CVE-2019-0022", summary="npm advisory", products=[("lodash", "*")])]
    results = partial_fuzzy_map(packages, cves, LOOKUP, cutoff=0.3)
    # Candidate via keyword, but scored against the name: stays under 0.3.
    assert similarity("lodash", "dashboard-kit") < 0.3
    assert results == []
    relaxed = partial_fuzzy_map(packages, cves, LOOKUP, cutoff=0.0)
    assert [r.package_key for r in relaxed] == ["p1"]


def test_fuzzy_single_candidate_still_respects_cutoff():
    packages = [mk_pkg("p1", "NPM", "a-very-long-package-name-og-thing")]
    cves = [mk_cve("CVE-2019-0023", summary="npm advisory", products=[("og", "*")])]
    assert partial_fuzzy_map(packages, cves, LOOKUP, cutoff=0.3) == []


def test_fuzzy_results_never_below_cutoff():
    rng = random.Random(555)
    for _ in range(25):
        packages, cves = random_corpus(rng, 40, 40)
        for result in partial_fuzzy_map(packages, cves, LOOKUP, cutoff=0.3):
            assert result.confidence >= 0.3


def test_fuzzy_shared_name_goes_to_first_source_package():
    packages = [
        mk_pkg("p9", "NPM", "react"),
        mk_pkg("p1", "NPM", "react"),
    ]
    cves = [mk_cve("CVE-2019-0024", summary="npm package react", products=[("react", "*")])]
    results = partial_fuzzy_map(packages, cves, LOOKUP)
    assert [r.package_key for r in results] == ["p9"]


# -- reference links -----------------------------------------------------------


def test_extract_reference_links_truncates_and_dedupes():
    cve = mk_cve(
        "CVE-2019-0030",
        refs=[
            "https://github.com/lodash/lodash/pull/4336",
            "https://github.com/a/b",
            "https://github.com/a/b/issues/1",
            "https://nvd.nist.gov/vuln/detail/CVE-2019-0030",
        ],
    )
    assert extract_reference_links(cve) == [
        "github.com/lodash/lodash",
        "github.com/a/b",
    ]


def test_extract_reference_links_unsupported_only():
    cve = mk_cve("CVE-2019-0031", refs=["https://nvd.nist.gov/x", "https://example.com/a/b"])
    assert extract_reference_links(cve) == []


# -- repository ------------------------------------------------------------------


def _repo_corpus():
    packages = [
        mk_pkg("p1", "NPM", "one", repo_url="https://github.com/a/b"),
        mk_pkg("p2", "Pypi", "two", repo_url="https://github.com/a/b"),
        mk_pkg("p3", "Maven", "three", repo_url="https://github.com/a/b"),
        mk_pkg("p4", "NPM", "four", repo_url="https://github.com/c/d"),
        mk_pkg("p5", "NPM", "five"),
    ]
    return packages


def test_repository_modes():
    packages = _repo_corpus()
    cves = [mk_cve("CVE-2019-0040", refs=["https://github.com/a/b/issues/7"])]
    all_links = repository_map(packages, cves, mode="all")
    first_link = repository_map(packages, cves, mode="first")
    assert sorted(r.package_key for r in all_links) == ["p1", "p2", "p3"]
    assert [r.package_key for r in first_link] == ["p1"]
    assert all(r.confidence == 1.0 for r in all_links)
    assert all_links[0].evidence.kind == REPO_LINK
    assert all_links[0].evidence.payload == ("github.com/a/b",)


def test_repository_no_links_yields_nothing():
    packages = _repo_corpus()
    cves = [mk_cve("CVE-2019-0041", refs=["https://example.com/a/b"])]
    assert repository_map(packages, cves, mode="all") == []


def test_repository_first_uses_reference_order():
    packages = _repo_corpus()
    cve = mk_cve(
        "CVE-2019-0042",
        refs=["https://github.com/nobody/nothing", "https://github.com/c/d",
              "https://github.com/a/b"],
    )
    results = repository_map(packages, [cve], mode="first")
    assert [r.package_key for r in results] == ["p4"]


def test_repository_invalid_mode():
    with pytest.raises(ValueError):
        repository_map([], [], mode="both")


def test_repository_first_subset_of_all_on_random_corpora():
    rng = random.Random(888)
    for _ in range(30):
        packages, cves = random_corpus(rng, 40, 40)
        all_links = {as_tuple(r) for r in repository_map(packages, cves, mode="all")}
        first = {as_tuple(r) for r in repository_map(packages, cves, mode="first")}
        assert first <= all_links


# -- run_all -----------------------------------------------------------------------


def _fixture_corpus():
    packages = [
        mk_pkg("p1", "NPM", "lodash", repo_url="https://github.com/lodash/lodash"),
        mk_pkg("p2", "NPM", "lodash-es", repo_url="https://github.com/lodash/lodash"),
        mk_pkg("p3", "NPM", "react", repo_url="https://github.com/facebook/react"),
        mk_pkg("p4", "Pypi", "requests", keywords=("http",)),
        mk_pkg("p5", "Go", "github.com/gin-gonic/gin"),
    ]
    cves = [
        mk_cve("CVE-2019-0101", summary="npm lodash flaw",
               products=[("lodash", "node.js")],
               refs=["https://github.com/lodash/lodash/pull/1"]),
        mk_cve("CVE-2019-0102", summary="pypi requests flaw", products=[("requests", "python")]),
        mk_cve("CVE-2019-0103", summary="golang gin traversal", products=[("gin", "go")]),
        mk_cve("CVE-2019-0104", summary="no products here", refs=["https://github.com/facebook/react"]),
        mk_cve("CVE-2019-0105", summary="npm and maven both"),
    ]
    return packages, cves


def test_run_all_matches_individual_strategies():
    packages, cves = _fixture_corpus()
    outcome = run_all(packages, cves, LOOKUP, cutoff=0.3)
    assert outcome.results["strict"] == strict_name_map(packages, cves, LOOKUP)
    assert outcome.results["fuzzy"] == partial_fuzzy_map(packages, cves, LOOKUP, 0.3)
    assert outcome.results["repository_all"] == repository_map(packages, cves, "all")
    assert outcome.results["repository_first"] == repository_map(packages, cves, "first")


def test_run_all_empty_corpus():
    outcome = run_all([], [], LOOKUP)
    assert set(outcome.results) == {"strict", "fuzzy", "repository_all", "repository_first"}
    assert all(v == [] for v in outcome.results.values())


def test_run_all_tallies_sum_to_total():
    packages, cves = _fixture_corpus()
    outcome = run_all(packages, cves, LOOKUP, malformed_cpes=7)
    runners = {
        "strict": lambda t: strict_name_map(packages, cves, LOOKUP, tallies=t),
        "fuzzy": lambda t: partial_fuzzy_map(packages, cves, LOOKUP, tallies=t),
        "repository_all": lambda t: repository_map(packages, cves, "all", tallies=t),
        "repository_first": lambda t: repository_map(packages, cves, "first", tallies=t),
    }
    for key, runner in runners.items():
        tally = outcome.tallies[key]
        assert tally["skipped"] + tally["mapped"] + tally["unmatched"] == tally["total_cves"]
        assert tally["total_cves"] == len(cves)
        own_tally = {}
        assert runner(own_tally) == outcome.results[key]
        assert own_tally == tally
    assert outcome.tallies["malformed_cpes"] == 7
    # Two CVEs carry no products; the ambiguous one is tallied for fuzzy.
    assert outcome.tallies["strict"]["skipped"] == 2
    assert outcome.tallies["fuzzy"]["ambiguous_platform"] == 1


def test_cve_order_permutation_invariance():
    packages, cves = _fixture_corpus()
    shuffled = cves[::-1]
    for runner in (
        lambda c: strict_name_map(packages, c, LOOKUP),
        lambda c: partial_fuzzy_map(packages, c, LOOKUP),
        lambda c: repository_map(packages, c, "all"),
        lambda c: repository_map(packages, c, "first"),
    ):
        assert runner(cves) == runner(shuffled)


def test_cve_order_does_not_change_outcome():
    rng = random.Random(31337)
    packages, cves = random_corpus(rng, 50, 50)
    shuffled = list(cves)
    rng.shuffle(shuffled)
    assert shuffled != cves
    in_order = run_all(packages, cves, LOOKUP)
    reordered = run_all(packages, shuffled, LOOKUP)
    assert in_order.results == reordered.results
    assert in_order.tallies == reordered.tallies


def test_results_are_unique_and_reference_corpus():
    packages, cves = _fixture_corpus()
    keys = {p.package_key for p in packages}
    ids = {c.cve_id for c in cves}
    outcome = run_all(packages, cves, LOOKUP)
    for results in outcome.results.values():
        triples = [(r.strategy, r.cve_id, r.package_key) for r in results]
        assert len(triples) == len(set(triples))
        for r in results:
            assert r.cve_id in ids
            assert r.package_key in keys
            assert 0.0 <= r.confidence <= 1.0


def test_mini_corpus_equals_bruteforce_oracles():
    rng = random.Random(2718)
    for _ in range(10):
        packages, cves = random_corpus(rng, 20, 15)
        got_strict = {as_tuple(r) for r in strict_name_map(packages, cves, LOOKUP)}
        assert got_strict == oracle_strict(packages, cves, LOOKUP)
        got_fuzzy = {as_tuple(r) for r in partial_fuzzy_map(packages, cves, LOOKUP, 0.3)}
        assert got_fuzzy == oracle_fuzzy(packages, cves, LOOKUP, 0.3)
        for mode in ("all", "first"):
            got_repo = {as_tuple(r) for r in repository_map(packages, cves, mode)}
            assert got_repo == oracle_repository(packages, cves, mode)


# -- lookup config ----------------------------------------------------------------


def test_lookup_rejects_duplicate_tokens():
    with pytest.raises(ValueError, match="both"):
        PlatformLookup(
            target_sw_aliases={},
            summary_keywords={"NPM": frozenset({"npm"}), "Maven": frozenset({"npm"})},
            reference_hosts={},
        )


def test_lookup_rejects_uppercase_tokens():
    with pytest.raises(ValueError, match="lowercase"):
        PlatformLookup(
            target_sw_aliases={"NPM": frozenset({"Node.JS"})},
            summary_keywords={},
            reference_hosts={},
        )


def test_lookup_config_file(tmp_path):
    doc = {
        "platforms": {
            "NPM": {"target_sw": ["Node.js"], "keywords": ["npm"], "hosts": ["npmjs.com"]}
        },
        "platform_aliases": {"Rubygems": "Ruby"},
    }
    path = tmp_path / "lookup.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    config = load_lookup_config(path)
    # Entries are lowercased on load.
    assert config.lookup.target_sw_aliases["NPM"] == frozenset({"node.js"})
    assert config.platform_aliases == {"Rubygems": "Ruby"}


def test_default_lookup_covers_the_seven_managers():
    config = default_lookup_config()
    assert set(config.lookup.summary_keywords) == {
        "NPM", "Pypi", "Maven", "Packagist", "NuGet", "Ruby", "Go",
    }
    assert config.platform_aliases == {"Rubygems": "Ruby"}
