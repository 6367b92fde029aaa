import math
import random
import string
from collections import Counter

import pytest

from vulnmap.fuzzy import (
    EmptyInput,
    _cosine_to,
    _grams,
    best_match,
    gram_profile,
    levenshtein,
    normalize,
    similarity,
)

# Independent reference implementation of the same scoring formula, kept
# deliberately different in style (dict-of-counts cosine, full-matrix DP).


def _ref_grams(s: str, n: int) -> dict:
    padded = "-" + s + "-"
    out: dict = {}
    for i in range(len(padded) - n + 1):
        g = padded[i : i + n]
        out[g] = out.get(g, 0) + 1
    return out


def _ref_cosine(a: str, b: str, n: int) -> float:
    ga, gb = _ref_grams(a, n), _ref_grams(b, n)
    dot = sum(ga[g] * gb.get(g, 0) for g in ga)
    if dot == 0:
        return 0.0
    norm_a = math.sqrt(sum(v * v for v in ga.values()))
    norm_b = math.sqrt(sum(v * v for v in gb.values()))
    return dot / (norm_a * norm_b)


def _ref_levenshtein(a: str, b: str) -> int:
    rows = len(a) + 1
    cols = len(b) + 1
    m = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        m[i][0] = i
    for j in range(cols):
        m[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            m[i][j] = min(m[i - 1][j] + 1, m[i][j - 1] + 1, m[i - 1][j - 1] + cost)
    return m[-1][-1]


def _ref_similarity(a: str, b: str) -> float:
    na, nb = normalize(a), normalize(b)
    cos = _ref_cosine(na, nb, 3)
    if cos == 0.0:
        cos = _ref_cosine(na, nb, 2)
    edit = 1.0 - _ref_levenshtein(na, nb) / max(len(na), len(nb))
    return min(1.0, max(cos, edit, 0.0))


def test_gram_profile_ab():
    p = gram_profile("ab", 2)
    assert p.grams == {"-a": 1, "ab": 1, "b-": 1}
    assert p.magnitude == pytest.approx(math.sqrt(3))


def test_gram_profile_multiset_counts():
    p = gram_profile("aaa", 2)
    assert p.grams == {"-a": 1, "aa": 2, "a-": 1}
    assert p.magnitude == pytest.approx(math.sqrt(1 + 4 + 1))


def test_gram_profile_empty_input():
    with pytest.raises(EmptyInput):
        gram_profile("", 2)
    with pytest.raises(EmptyInput):
        gram_profile("!!!", 3)


def test_gram_profile_rejects_tiny_gram_size():
    with pytest.raises(ValueError):
        gram_profile("ab", 1)


def test_similarity_identity_and_disjoint():
    assert similarity("lodash", "lodash") == 1.0
    assert similarity("a", "b") == 0.0


def test_similarity_golden_value():
    # Hand-derived: trigram cosine 6/sqrt(18*5) = 2/sqrt(10); edit side
    # 1 - 11/16 = 0.3125 loses to it.
    expected = 2 / math.sqrt(10)
    got = similarity("create-react-app", "react")
    assert got == pytest.approx(expected, abs=0)
    assert got == pytest.approx(_ref_similarity("create-react-app", "react"), abs=0)
    assert got == pytest.approx(0.6324555320336759)


def test_similarity_golden_value_go_path():
    # Hand-derived: "-gin-" trigrams {-gi, gin, in-} against the padded
    # normalized module path (24 trigrams: -gi x3, gin x2, in- x2, 17
    # singles): dot 7, magnitudes sqrt(3) and sqrt(34). Edit side is 0.125.
    expected = 7 / math.sqrt(3 * 34)
    assert similarity("gin", "github.com/gin-gonic/gin") == pytest.approx(expected, abs=0)
    assert similarity("gin", "github.com/gin-gonic/gin") == pytest.approx(0.6931032800836721)


def test_similarity_normalizes_before_scoring():
    assert similarity("Create React App", "create-react-app") == 1.0


def test_similarity_empty_raises():
    with pytest.raises(EmptyInput):
        similarity("", "x")
    with pytest.raises(EmptyInput):
        similarity("x", "--")


def _random_word(rng: random.Random) -> str:
    alphabet = string.ascii_lowercase + string.digits + "-._ "
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 14)))


def test_similarity_properties_10k():
    rng = random.Random(42)
    pairs = 0
    while pairs < 10_000:
        a, b = _random_word(rng), _random_word(rng)
        if not normalize(a) or not normalize(b):
            continue
        pairs += 1
        s_ab = similarity(a, b)
        assert 0.0 <= s_ab <= 1.0
        assert s_ab == similarity(b, a)
        assert similarity(a, a) == 1.0
        assert s_ab == pytest.approx(_ref_similarity(a, b), abs=1e-12)


COSINE_PAIRS = [
    ("aaaa", "aaaa"),  # grams repeat on both sides
    ("aaaa", "aaa"),
    ("abab-abab", "abab"),
    ("abab", "abab-abab"),  # a candidate whose grams repeat
    ("abab-abab", "lodash"),
    ("lodash", "lodash-es"),  # no gram repeats
    ("react", "create-react-app"),
    ("gin", "github.com/gin-gonic/gin"),
    ("xyz", "lodash"),  # a zero dot product
    ("qq", "aaaa"),
]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("a, b", COSINE_PAIRS)
def test_cosine_to_equals_reference_bit_for_bit(a, b, n):
    got = _cosine_to(gram_profile(a, n), _grams(normalize(b), n))
    assert got.hex() == _ref_cosine(normalize(a), normalize(b), n).hex()


def test_levenshtein_agrees_with_reference():
    rng = random.Random(4242)
    for _ in range(300):
        a, b = _random_word(rng), _random_word(rng)
        assert levenshtein(a, b) == _ref_levenshtein(a, b)


def test_best_match_exact_beats_superstring():
    assert best_match("lodash", ["lodash", "lodash-es"], 0.3) == ("lodash", 1.0)


def test_best_match_below_cutoff():
    assert best_match("zzz", ["lodash"], 0.3) is None
    assert similarity("zzz", "lodash") < 0.3


def test_best_match_empty_candidates():
    assert best_match("x", [], 0.0) is None


def test_best_match_tie_broken_by_length_then_lex():
    # Both candidates contain the query with one extra char: equal scores.
    assert similarity("abc", "abcx") == similarity("abc", "xabc")
    assert best_match("abc", ["xabc", "abcx"], 0.0) == ("abcx", similarity("abc", "abcx"))
    # Equal score and length: lexicographic order decides.
    chosen = best_match("ab", ["abz", "aby"], 0.0)
    assert chosen is not None and chosen[0] == "aby"


def test_best_match_agrees_with_linear_scan_oracle():
    rng = random.Random(777)
    for _ in range(1000):
        query = _random_word(rng)
        if not normalize(query):
            continue
        candidates = [_random_word(rng) for _ in range(rng.randint(0, 8))]
        cutoff = rng.choice([0.0, 0.3, 0.5, 0.8])
        got = best_match(query, candidates, cutoff)

        best = None
        for cand in candidates:
            if not normalize(cand):
                continue
            score = similarity(query, cand)
            if score < cutoff:
                continue
            order = (-score, len(cand), cand)
            if best is None or order < best[0]:
                best = (order, cand, score)
        expected = None if best is None else (best[1], best[2])
        assert got == expected


def _ref_best_match(query: str, candidates: list[str], cutoff: float):
    """The scoring loop best_match replaced: one full similarity per candidate."""
    if not normalize(query):
        return None
    best = None
    for cand in candidates:
        if not normalize(cand):
            continue
        score = _ref_similarity(query, cand)
        if score < cutoff:
            continue
        order = (-score, len(cand), cand)
        if best is None or order < best[0]:
            best = (order, cand, score)
    return None if best is None else (best[1], best[2])


def test_best_match_equals_reference_loop_bit_for_bit():
    rng = random.Random(2024)

    def word() -> str:
        return "".join(rng.choice("abc-.") for _ in range(rng.randint(0, 9)))

    seen = Counter()
    for _ in range(4000):
        query = word()
        candidates = [word() for _ in range(rng.randint(0, 9))]
        if candidates and rng.random() < 0.3:
            candidates.append(rng.choice(candidates))
        cutoff = rng.choice([0.0, 0.3, 1.0, -0.5])
        got = best_match(query, candidates, cutoff)
        expected = _ref_best_match(query, candidates, cutoff)
        assert got == expected, (query, candidates, cutoff)
        if got is not None:
            assert got[1].hex() == expected[1].hex()
            top = {c for c in candidates if normalize(c) and len(c) == len(got[0])
                   and _ref_similarity(query, c) == got[1]}
            seen["tie"] += len(top) > 1
        seen["empty query"] += not normalize(query)
        seen["empty candidate"] += any(not normalize(c) for c in candidates)
        seen["duplicate"] += len(set(candidates)) < len(candidates)
        seen[cutoff] += got is not None
    for case in ("tie", "empty query", "empty candidate", "duplicate", 0.0, 0.3, 1.0, -0.5):
        assert seen[case] > 0, case


@pytest.mark.parametrize(
    "query, candidates, calls",
    [
        # Every edit bound is at most 1 - 15/20 = 0.25, under the 0.3 cutoff;
        # "preamble-of-something" comes first and shares one trigram: a cosine
        # under its bound, so only the cutoff rules it out.
        ("react", ["preamble-of-something", "create-react-app-cli", "reactive-streams-tools"], 0),
        # After the exact match scores 1.0, "reactor" (bound 5/7) cannot win.
        ("react", ["react", "reactor", "reactors"], 1),
    ],
)
def test_best_match_skips_edit_distance_that_cannot_change_the_result(
    monkeypatch, query, candidates, calls
):
    counted = []

    def counting_levenshtein(a: str, b: str) -> int:
        counted.append((a, b))
        return levenshtein(a, b)

    monkeypatch.setattr("vulnmap.fuzzy.levenshtein", counting_levenshtein)
    assert best_match(query, candidates, 0.3) == _ref_best_match(query, candidates, 0.3)
    assert len(counted) == calls
