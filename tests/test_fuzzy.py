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
        # The exact match has the highest bound, so it is scored first, at 1.0
        # with no distance (each contains the other); "reactor" (bound 5/7)
        # and "reactors" are then cut by their bounds, unscored.
        ("react", ["react", "reactor", "reactors"], 0),
        # Equal lengths, so a length bound of 1.0 above the cosine of 1/5, and
        # neither contains the other: only the distance gives the edit score.
        ("react", ["raect"], 1),
        # A bound of 5/7 above the cosine of 4/sqrt(35), but the query
        # contains the candidate: the distance is the length difference.
        ("reactjs", ["react"], 0),
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


def _ref_bound(nq: str, nc: str) -> float:
    """best_match's first-pass bound, from dict-of-counts grams."""
    for n, size in ((3, len(nc)), (2, len(nc) + 1)):
        gq, gc = _ref_grams(nq, n), _ref_grams(nc, n)
        dot = sum(count * gc.get(g, 0) for g, count in gq.items())
        if dot:
            break
    magnitude = math.sqrt(sum(v * v for v in gq.values()))
    return max(dot / (magnitude * math.sqrt(size)),
               1.0 - abs(len(nq) - len(nc)) / max(len(nq), len(nc)))


def test_best_match_equals_reference_loop_on_long_repetitive_words():
    # Few letters make grams that overlap themselves ("aaa", "aba", "aa"),
    # which str.count would undercount; 1-2 character queries have few
    # trigrams, so many candidates share none and are bounded by bigrams.
    rng = random.Random(4711)
    seen = Counter()
    for _ in range(3000):
        alphabet = rng.choice(["ab-", "a-", "ab", "abc-", "ab.c"])

        def word(longest: int) -> str:
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))

        query = word(2) if rng.random() < 0.4 else word(30)
        candidates = [word(30) for _ in range(rng.randint(0, 12))]
        cutoff = rng.choice([-0.5, 0.0, 0.3, 1.0])
        got = best_match(query, candidates, cutoff)
        expected = _ref_best_match(query, candidates, cutoff)
        assert got == expected, (query, candidates, cutoff)
        if got is not None:
            assert got[1].hex() == expected[1].hex()
            nq, nc = normalize(query), normalize(got[0])
            seen["bigram winner"] += not _ref_cosine(nq, nc, 3) and _ref_cosine(nq, nc, 2) > 0
        nq = normalize(query)
        seen["self-overlapping query gram"] += any(
            g[0] in g[1:] for n in (2, 3) for g in _ref_grams(nq, n))
        seen[cutoff] += got is not None
    for case in ("bigram winner", "self-overlapping query gram", -0.5, 0.0, 0.3, 1.0):
        assert seen[case] > 0, case


def test_an_exact_match_leaves_only_candidates_bounded_at_1_to_score(monkeypatch):
    scored = []

    def counting_cosine_to(profile, grams):
        scored.append(grams)
        return _cosine_to(profile, grams)

    monkeypatch.setattr("vulnmap.fuzzy._cosine_to", counting_cosine_to)
    rng = random.Random(99)
    reached = cut = 0
    for _ in range(500):
        query = "".join(rng.choice("abc-") for _ in range(rng.randint(1, 8)))
        nq = normalize(query)
        if not nq:
            continue
        # Lengths near the query's, whose length bounds are near or at 1.0.
        lengths = (max(1, len(nq) - 1), len(nq), len(nq) + 1, 30)
        candidates = ["".join(rng.choice("abc-") for _ in range(rng.choice(lengths)))
                      for _ in range(rng.randint(0, 10))]
        candidates.insert(rng.randint(0, len(candidates)), query.upper() + "!")
        bounds = [_ref_bound(nq, normalize(c)) for c in candidates if normalize(c)]
        scored.clear()
        got = best_match(query, candidates, rng.choice([0.0, 0.3, 1.0]))
        assert got is not None and got[1] == 1.0
        assert len(scored) == sum(b >= 1.0 for b in bounds), (query, candidates)
        reached += len(scored) - 1
        cut += len(bounds) - len(scored)
    assert reached > 0 and cut > 0
