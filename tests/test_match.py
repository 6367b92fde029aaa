import json
import random
from array import array
from datetime import date
from itertools import accumulate
from operator import attrgetter
from pathlib import Path

import pytest

from helpers import (
    as_tuple,
    oracle_fuzzy,
    oracle_repository,
    oracle_strict,
    random_corpus,
)
from vulnmap.cpe import parse_cpe23
from vulnmap.fuzzy import best_match, similarity
from vulnmap.ingest import (
    CveCpe,
    CveRecord,
    PackageRecord,
    extract_repo_link,
    load_cves,
    load_packages,
    open_text_auto,
)
from vulnmap.match import (
    FUZZY_SCORE,
    PRODUCT_NAME_EQUAL,
    REPO_LINK,
    SUMMARY_KEYWORD,
    PlatformLookup,
    Strategy,
    FuzzyView,
    build_indexes,
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
FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def mk_pkg(key, platform, name, keywords=(), repo_url="", license=""):
    return PackageRecord(
        package_key=key,
        platform=platform,
        name=name,
        keywords=tuple(keywords),
        license=license,
        repo_link=extract_repo_link(repo_url),
    )


def mk_cve(cve_id, summary="", refs=(), products=(), year=2019):
    cpes = (
        parse_cpe23(f"cpe:2.3:a:acme:{product}:*:*:*:*:*:{target}:*:*")
        for product, target in products
    )
    return CveRecord(
        cve_id=cve_id,
        summary=summary,
        references=tuple(refs),
        published=date(year, 1, 1),
        cpes=tuple(dict.fromkeys(CveCpe(c.product, c.target_sw) for c in cpes)),
    )


# -- package views ---------------------------------------------------------------

# What each view is keyed by, and the build_indexes demand that asks for it.
VIEW_KEYS = {
    "name": (attrgetter("name"), lambda wanted: {"names": wanted}),
    "platform": (attrgetter("platform"), lambda wanted: {"platforms": wanted}),
    "repo_link": (attrgetter("repo_link"), lambda wanted: {"links": wanted}),
    "go_last_segment": (
        lambda p: p.name.rsplit("/", 1)[-1] if p.platform == "Go" and "/" in p.name else None,
        lambda wanted: {"names": wanted, "go_last_segment": True},
    ),
}


def view_of(views, key):
    """The view built for ``key``, as value -> [(package_key, platform)]."""
    if key == "platform":
        return {platform: [(k, platform) for k in view.keys] for platform, view in views.fuzzy.items()}
    return {"name": views.by_name, "repo_link": views.by_link,
            "go_last_segment": views.by_last_segment}[key]


def fixture_packages(name):
    with open(FIXTURES / name, encoding="utf-8", newline="") as fh:
        return list(load_packages(fh, platform_aliases={"rubygems": "Ruby"}))


def test_build_indexes_shared_repo_preserves_source_order():
    records = fixture_packages("packages_small.csv")
    views = build_indexes(iter(records), links={"github.com/facebook/react"})
    shared = views.by_link["github.com/facebook/react"]
    assert shared == [(r.package_key, r.platform) for r in records
                      if r.package_key in ("P002", "P003")]
    # react before react-dom, as in the CSV
    assert [key for key, _ in shared] == ["P002", "P003"]
    assert views.by_name == views.by_last_segment == views.fuzzy == {}


def test_build_indexes_empty():
    views = build_indexes([], names={"a"}, links={"b"}, platforms={"NPM"}, go_last_segment=True)
    assert views.by_name == views.by_last_segment == views.by_link == {}
    assert views.fuzzy == {"NPM": FuzzyView("", array("q", [0]), [], {})}
    assert build_indexes([]) == build_indexes(fixture_packages("packages_oracle.csv"))


@pytest.mark.parametrize("key", VIEW_KEYS, ids=VIEW_KEYS.keys())
def test_build_indexes_key_count_matches_bruteforce(key):
    # Every other value is asked for, and one no package has: the view keeps
    # exactly the packages of the values asked for, each in source order.
    packages = fixture_packages("packages_oracle.csv")
    of, demand = VIEW_KEYS[key]
    values = sorted({of(p) for p in packages} - {None})
    assert len(values) > 1
    wanted = set(values[::2]) | {"absent"}
    groups = view_of(build_indexes(iter(packages), **demand(wanted)), key)
    expected = {v: [(p.package_key, p.platform) for p in packages if of(p) == v] for v in wanted}
    # A platform asked for gets a view, if empty; the other views keep only what exists.
    assert groups == {v: held for v, held in expected.items() if held or key == "platform"}


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


def scan_candidates(pool, product):
    return [p for p in pool if product in p.name or any(product in kw for kw in p.keywords)]


def fuzzy_view(pool):
    return build_indexes(iter(pool), platforms={"NPM"}).fuzzy["NPM"]


def search_candidates(view, product):
    return [(view.keys[i], view.name(i)) for i in view.candidates(product)]


def scanned(pool, product):
    return [(p.package_key, p.name) for p in scan_candidates(pool, product)]


CANDIDATE_CASES = {
    "whole-name": ([("a", "lodash"), ("b", "lodash-x"), ("c", "lodas")], "lodash"),
    "keyword-only": ([("a", "kit", "util", "lodash"), ("b", "dash")], "lodash"),
    "no-keywords": ([("a", "ab"), ("b", "cd", "ab"), ("c", "xab")], "ab"),
    "across-name-keyword": ([("a", "ab", "cd")], "bc"),
    "across-name-keyword-nul": ([("a", "ab", "cd")], "b\0c"),
    "across-packages-nul": ([("a", "ab"), ("b", "cd")], "b\0c"),
    "nul-alone": ([("a", "ab", "cd"), ("b", "x\0y"), ("c", "e", "f\0")], "\0"),
    "nul-in-name": ([("a", "x"), ("b", "x\0y", "z")], "x\0y"),
    "non-ascii": ([("a", "café"), ("b", "naïve", "ü"), ("c", "日本語"), ("d", "x😀ü")], "ü"),
    "wide-non-ascii": ([("a", "日本語"), ("b", "本", "😀日本")], "日本"),
    "last-package": ([("a", "aa"), ("b", "bb", "cc", "xyz")], "yz"),
    "empty-pool": ([], "a"),
    "shared-name-keyword-first": (
        [("a", "ui-kit"), ("b", "ui-kit", "react"), ("c", "react-ui-kit")], "react"),
}


@pytest.mark.parametrize("case", CANDIDATE_CASES, ids=list(CANDIDATE_CASES))
def test_candidate_search_equals_scan(case):
    rows, product = CANDIDATE_CASES[case]
    pool = [mk_pkg(key, "NPM", name, keywords) for key, name, *keywords in rows]
    assert search_candidates(fuzzy_view(pool), product) == scanned(pool, product)


def test_haystack_equals_per_package_segments_on_random_pools():
    # The fuzzy view's text against one joined segment per package.
    rng = random.Random(1717)
    alphabet = "ab\0é😀"

    def word(low):
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(low, 5)))

    for _ in range(200):
        pool = [
            mk_pkg(f"k{i}", "NPM", word(0), [word(0) for _ in range(rng.choice((0, 0, 1, 3)))])
            for i in range(rng.randint(0, 10))
        ]
        segments = ["\0".join((pkg.name, *pkg.keywords)) + "\0" for pkg in pool]
        view = fuzzy_view(pool)
        assert view.text == "".join(segments)
        assert list(view.starts) == list(accumulate(map(len, segments), initial=0))
        assert view.keys == [pkg.package_key for pkg in pool]
        assert view.nul_fields == {
            i: (pkg.name, *pkg.keywords) for i, pkg in enumerate(pool)
            if "\0" in pkg.name + "".join(pkg.keywords)
        }


def test_candidate_search_equals_scan_on_random_pools():
    # A four-letter alphabet, "\0" and non-ASCII included, so that 1-2
    # character products hit often, and across separators too.
    rng = random.Random(4242)
    alphabet = "ab\0é"
    products = [*alphabet, *(x + y for x in alphabet for y in alphabet), "ab\0", "\0é\0"]

    def word(low):
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(low, 4)))

    for _ in range(300):
        pool = [
            mk_pkg(f"k{i}", "NPM", word(1), [word(0) for _ in range(rng.randint(0, 3))])
            for i in range(rng.randint(0, 12))
        ]
        view = fuzzy_view(pool)
        for product in products:
            assert search_candidates(view, product) == scanned(pool, product)


def test_fuzzy_equals_oracle_on_small_alphabet_corpora():
    rng = random.Random(99)
    alphabet = "abc"

    def word(low):
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(low, 4)))

    mapped = 0
    for _ in range(60):
        packages = [
            mk_pkg(f"k{i}", rng.choice(("NPM", "Pypi")), word(1),
                   [word(0) for _ in range(rng.randint(0, 2))])
            for i in range(rng.randint(0, 25))
        ]
        cves = [
            mk_cve(f"CVE-2020-{1000 + n}", summary=rng.choice(("npm", "pypi", "maven", "none")),
                   products=[(word(1), "*") for _ in range(rng.randint(1, 3))])
            for n in range(10)
        ]
        got = {as_tuple(r) for r in partial_fuzzy_map(packages, cves, LOOKUP, 0.3)}
        assert got == oracle_fuzzy(packages, cves, LOOKUP, 0.3)
        mapped += len(got)
    assert mapped


def test_fuzzy_empty_pool_and_keyword_claimed_shared_name():
    packages = [
        mk_pkg("p1", "NPM", "ui-kit"),
        mk_pkg("p2", "NPM", "ui-kit", keywords=("react",)),
    ]
    cves = [
        mk_cve("CVE-2019-0030", summary="npm advisory", products=[("react", "*")]),
        mk_cve("CVE-2019-0031", summary="a maven artifact", products=[("react", "*")]),
    ]
    results = partial_fuzzy_map(packages, cves, LOOKUP, cutoff=0.0)
    assert [(r.cve_id, r.package_key) for r in results] == [("CVE-2019-0030", "p2")]


def test_fuzzy_decides_each_platform_product_once(monkeypatch):
    packages = [
        mk_pkg("n1", "NPM", "lodash"),
        mk_pkg("n2", "NPM", "lodash-es"),
        mk_pkg("n3", "NPM", "dashboard", keywords=("lodash",)),
        mk_pkg("p1", "Pypi", "pylodash"),
        mk_pkg("n4", "NPM", "react"),
    ]
    cves = [
        mk_cve("CVE-2019-0040", summary="npm advisory", products=[("lodash", "*")]),
        mk_cve("CVE-2019-0041", summary="npm package", products=[("lodash", "*"), ("react", "*")]),
        mk_cve("CVE-2019-0042", summary="another npm bug", products=[("lodash", "*")]),
        mk_cve("CVE-2019-0043", summary="a pypi module", products=[("lodash", "*")]),
        mk_cve("CVE-2019-0044", summary="npm: react again", products=[("react", "*")]),
    ]
    calls = []

    def counting_best_match(query, candidates, cutoff):
        calls.append(query)
        return best_match(query, candidates, cutoff)

    monkeypatch.setattr("vulnmap.match.best_match", counting_best_match)
    for cutoff in (0.0, 0.3, 0.9):
        calls.clear()
        got = {as_tuple(r) for r in partial_fuzzy_map(packages, cves, LOOKUP, cutoff)}
        assert sorted(calls) == ["lodash", "lodash", "react"]  # (NPM|Pypi, lodash), (NPM, react)
        assert got == oracle_fuzzy(packages, cves, LOOKUP, cutoff)
    assert {(cve_id, key) for cve_id, key, *_ in got} == {
        ("CVE-2019-0040", "n1"), ("CVE-2019-0041", "n1"), ("CVE-2019-0041", "n4"),
        ("CVE-2019-0042", "n1"), ("CVE-2019-0044", "n4"),
    }


@pytest.mark.parametrize("workload", ["fuzzy-pool", "fuzzy-score"])
def test_fuzzy_equals_oracle_on_bench_inputs(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    from run import WORKLOADS

    corpus = gen.generate(workload, WORKLOADS[workload], 1, tmp_path)
    config = default_lookup_config()
    with open_text_auto(corpus.packages_path) as src:
        packages = list(load_packages(src, platform_aliases=config.platform_aliases))
    with open_text_auto(corpus.cves_path) as src:
        cves = list(load_cves(src))
    got = {as_tuple(r) for r in partial_fuzzy_map(packages, cves, config.lookup, 0.3)}
    assert got
    assert got == oracle_fuzzy(packages, cves, config.lookup, 0.3)


def _assert_strict_and_repository_equal_oracles(packages, cves, lookup):
    strict = strict_name_map(packages, cves, lookup)
    assert strict and {as_tuple(r) for r in strict} == oracle_strict(packages, cves, lookup)
    for mode in ("all", "first"):
        got = repository_map(packages, cves, mode)
        assert got and {as_tuple(r) for r in got} == oracle_repository(packages, cves, mode)
        assert got == sorted(got, key=lambda r: (r.cve_id, r.platform, r.package_key))


@pytest.mark.parametrize("workload", ["bulk-dump", "fuzzy-pool", "fuzzy-score"])
def test_strict_and_repository_equal_oracles_on_bench_inputs(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    from run import WORKLOADS

    corpus = gen.generate(workload, WORKLOADS[workload], 1, tmp_path)
    config = default_lookup_config()
    with open_text_auto(corpus.packages_path) as src:
        packages = list(load_packages(src, platform_aliases=config.platform_aliases))
    with open_text_auto(corpus.cves_path) as src:
        cves = list(load_cves(src))
    _assert_strict_and_repository_equal_oracles(packages, cves, config.lookup)


def test_strict_and_repository_equal_oracles_on_shared_names_and_links():
    # One name on interleaved platforms and one repository link shared by
    # packages of several platforms, in shuffled source orders.
    rng = random.Random(1105)
    platforms = ("NPM", "Pypi", "Go", "Maven", "Ruby")
    targets = ("node.js", "python", "go", "java", "ruby", "*")
    for _ in range(30):
        packages = []
        for i in range(rng.randint(10, 40)):
            name = rng.choice(("shared", "shared", "other", f"own{i}"))
            url = rng.choice(("https://github.com/acme/shared", "https://gitlab.com/acme/lib", ""))
            packages.append(mk_pkg(f"k{i:02d}", rng.choice(platforms), name, repo_url=url))
        cves = [
            mk_cve(f"CVE-2020-{1000 + n}", summary=rng.choice(("npm", "pypi", "golang", "none")),
                   refs=rng.sample(("https://github.com/acme/shared/issues/1",
                                    "https://gitlab.com/acme/lib", "https://example.org/x"),
                                   rng.randint(1, 3)),
                   products=[(rng.choice(("shared", "other", "own3")), rng.choice(targets))
                             for _ in range(rng.randint(1, 3))])
            for n in range(12)
        ]
        _assert_strict_and_repository_equal_oracles(packages, cves, LOOKUP)


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


@pytest.mark.parametrize("strategy", ["strict", "repository_all"])
def test_shared_package_key_goes_to_first_source_package(strategy):
    # Two packages share one key on different platforms and both match the
    # CVE: the one first in source order claims the key, with its evidence.
    packages = [
        mk_pkg("k1", "Pypi", "shared", repo_url="https://github.com/a/b"),
        mk_pkg("k1", "NPM", "shared", repo_url="https://github.com/a/b"),
    ]
    cve = mk_cve("CVE-2019-0050", summary="a pypi flaw", refs=["https://github.com/a/b"],
                 products=[("shared", "node.js")])
    if strategy == "strict":
        # Pypi passes on its summary keyword, NPM on its target_sw alias.
        results = strict_name_map(packages, [cve], LOOKUP)
        evidence = (SUMMARY_KEYWORD, ("pypi",))
    else:
        results = repository_map(packages, [cve], mode="all")
        evidence = (REPO_LINK, ("github.com/a/b",))
    assert [(r.package_key, r.platform, tuple(r.evidence)) for r in results] == [
        ("k1", "Pypi", evidence),
    ]


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
    outcome = run_all(packages, cves, LOOKUP)
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


@pytest.mark.parametrize("table", ["target_sw_aliases", "summary_keywords", "reference_hosts"])
def test_lookup_rejects_empty_tokens(table):
    # An empty keyword is a word of every summary, an empty host part of every URL.
    tables = {"target_sw_aliases": {}, "summary_keywords": {}, "reference_hosts": {}}
    tables[table] = {"NPM": frozenset({"npm", ""})}
    with pytest.raises(ValueError, match="must not be empty"):
        PlatformLookup(**tables)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"platforms": {"NPM": {"keywords": ["npm", ""]}}}, "keywords entries must not be empty"),
        ({"platforms": {"Pypi": {"hosts": [""]}}}, "hosts entries must not be empty"),
        ({"platform_aliases": {"": "NPM"}}, '"platform_aliases" must map'),
        ({"platform_aliases": {"Rubygems": ""}}, '"platform_aliases" must map'),
        ({"platforms": []}, '"platforms" must map'),
        ({"platforms": 0}, '"platforms" must map'),
        ({"platforms": ""}, '"platforms" must map'),
        ({"platform_aliases": []}, '"platform_aliases" must map'),
        ({"platform_aliases": 0}, '"platform_aliases" must map'),
        ({"platform_aliases": ""}, '"platform_aliases" must map'),
    ],
    ids=["empty-keyword", "empty-host", "empty-alias-label", "empty-alias-target",
         "platforms-list", "platforms-zero", "platforms-string",
         "aliases-list", "aliases-zero", "aliases-string"],
)
def test_lookup_rejects_empty_entries_and_non_object_sections(tmp_path, doc, message):
    path = tmp_path / "lookup.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_lookup_config(path)


def test_lookup_config_missing_sections_are_empty(tmp_path):
    path = tmp_path / "lookup.json"
    path.write_text("{}", encoding="utf-8")
    config = load_lookup_config(path)
    assert config.lookup.summary_keywords == {} and config.platform_aliases == {}


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
