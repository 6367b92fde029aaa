"""Approximate string matching: character n-gram cosine blended with edit similarity."""

from __future__ import annotations

import math
import re
from collections import Counter
from itertools import repeat
from typing import NamedTuple

SENTINEL = "-"

_NON_ALNUM = re.compile(r"[^0-9a-z]+")


class EmptyInput(ValueError):
    """The input normalizes to the empty string."""


def normalize(s: str) -> str:
    """Lowercase and collapse runs of non-alphanumerics to a single "-"."""
    return _NON_ALNUM.sub("-", s.lower()).strip("-")


class GramProfile(NamedTuple):
    """Multiset of character n-grams of a normalized string."""

    grams: Counter
    magnitude: float
    source: str


def _grams(norm: str, gram_size: int) -> list[str]:
    """The n-grams of a normalized string padded with one sentinel per side, in order."""
    padded = SENTINEL + norm + SENTINEL
    return [padded[i : i + gram_size] for i in range(len(padded) - gram_size + 1)]


def gram_profile(s: str, gram_size: int = 3) -> GramProfile:
    """Build the n-gram profile of a string padded with one sentinel per side."""
    if gram_size < 2:
        raise ValueError(f"gram_size must be >= 2, got {gram_size}")
    norm = normalize(s)
    if not norm:
        raise EmptyInput(f"no alphanumeric content in {s!r}")
    grams = Counter(_grams(norm, gram_size))
    magnitude = math.sqrt(sum(c * c for c in grams.values()))
    return GramProfile(grams=grams, magnitude=magnitude, source=norm)


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert/delete/substitute, unit costs)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        row = [i]
        for j, cb in enumerate(b, 1):
            cost = 0 if ca == cb else 1
            row.append(min(row[-1] + 1, prev[j] + 1, prev[j - 1] + cost))
        prev = row
    return prev[-1]


def _cosine_to(profile: GramProfile, grams: list[str]) -> float:
    """Cosine between ``profile`` and the multiset ``grams``, with no profile built for it.

    The dot product and the squared magnitude are exact ints, so the result
    equals the cosine of the two profiles bit for bit. Without a repeated
    gram the squared magnitude is the gram count.
    """
    dot = sum(map(profile.grams.get, grams, repeat(0)))
    if dot == 0:
        return 0.0
    if len(set(grams)) == len(grams):
        squares = len(grams)
    else:
        squares = sum(c * c for c in Counter(grams).values())
    return dot / (profile.magnitude * math.sqrt(squares))


def similarity(a: str, b: str) -> float:
    """Score two strings in [0, 1]; 1.0 for inputs that normalize equal.

    Cosine similarity over trigram profiles, falling back to bigrams when
    the trigram score is zero, blended with normalized edit similarity by
    taking the maximum of the two.
    """
    na = normalize(a)
    nb = normalize(b)
    if not na or not nb:
        raise EmptyInput(f"cannot compare {a!r} and {b!r}")
    cos = _cosine_to(gram_profile(na, 3), _grams(nb, 3))
    if cos == 0.0:
        cos = _cosine_to(gram_profile(na, 2), _grams(nb, 2))
    edit = 1.0 - levenshtein(na, nb) / max(len(na), len(nb))
    return min(1.0, max(cos, edit, 0.0))


def _split_grams(norm: str, gram_size: int) -> tuple[list[str], list[str]]:
    """``_grams(norm, gram_size)`` in two lists: the grams that cannot overlap
    a copy of themselves, and those that can (``aa``, ``aaa``, ``aba``)."""
    plain: list[str] = []
    overlapping: list[str] = []
    for gram in _grams(norm, gram_size):
        (overlapping if gram[0] in gram[1:] else plain).append(gram)
    return plain, overlapping


def _gram_dot(text: str, plain: list[str], overlapping: list[str]) -> int:
    """The occurrences in ``text`` of each gram of ``_split_grams``, summed.

    For a padded normalized string that is the dot product of its n-gram
    profile with the profile the grams came from. ``str.count`` skips
    overlapping occurrences, so the grams that can overlap are found one at
    a time.
    """
    dot = sum(map(text.count, plain))
    for gram in overlapping:
        at = text.find(gram)
        while at >= 0:
            dot += 1
            at = text.find(gram, at + 1)
    return dot


def best_match(
    query: str, candidates: list[str], cutoff: float
) -> tuple[str, float] | None:
    """Pick the candidate most similar to the query, if any clears the cutoff.

    Ties are broken by shortest candidate, then lexicographic order. Scores
    equal ``similarity(query, cand)`` bit for bit. The query is normalized
    and profiled once. A first pass bounds every candidate's score, a second
    scores exactly only the candidates whose bound can still win (after
    Bayardo, Ma and Srikant, "Scaling Up All Pairs Similarity Search", WWW
    2007).

    The bound is ``max(dot / (|q| * sqrt(len(nc))), 1 - |len(nq) - len(nc)| /
    max(len(nq), len(nc)))``. The dot product with the query's trigram
    profile is counted in the padded candidate; when it is 0, the bigram
    profile's is, over ``len(nc) + 1``. Each of the candidate's ``len(nc)``
    trigrams counts at least once, so its squared magnitude is at least
    ``len(nc)``, and the edit distance is at least the length difference;
    IEEE ``sqrt``, ``*``, ``/`` and ``-`` are monotone, so the floats obey
    the bound too. Candidates whose bound is below the cutoff are dropped,
    and the rest are scored in falling bound order until a bound is strictly
    below the best score, so no tie is missed. ``levenshtein`` runs only
    when the length bound exceeds the cosine and neither normalized string
    contains the other: when one does, the distance is the length difference
    and the edit score is the bound.
    """
    try:
        pq = gram_profile(query, 3)
    except EmptyInput:
        return None
    nq = pq.source
    lq = len(nq)
    grams3 = _split_grams(nq, 3)
    pq2: GramProfile | None = None
    grams2: tuple[list[str], list[str]] | None = None
    sqrt = math.sqrt
    pool: list[tuple[float, float, int, str, str]] = []
    # The first pass is most of the cost, so it calls no max() and looks up no module.
    for cand in candidates:
        nc = normalize(cand)
        if not nc:
            continue
        padded = SENTINEL + nc + SENTINEL
        lc = len(nc)
        dot = _gram_dot(padded, *grams3)
        if dot:
            gram_size, upper = 3, dot / (pq.magnitude * sqrt(lc))
        else:
            if pq2 is None:
                pq2, grams2 = gram_profile(nq, 2), _split_grams(nq, 2)
            dot = _gram_dot(padded, *grams2)
            gram_size, upper = 2, dot / (pq2.magnitude * sqrt(lc + 1))
        bound = 1.0 - abs(lq - lc) / (lq if lq > lc else lc)
        if upper < bound:
            upper = bound
        if upper >= cutoff:
            pool.append((upper, bound, gram_size, nc, cand))
    pool.sort(reverse=True)
    floor = cutoff  # the score a candidate must reach: the cutoff, then the best so far
    best_key: tuple[float, int, str] | None = None
    best: tuple[str, float] | None = None
    for upper, bound, gram_size, nc, cand in pool:
        if upper < floor:
            break
        cos = _cosine_to(pq if gram_size == 3 else pq2, _grams(nc, gram_size))
        edit = bound  # the edit score, or a stand-in that cannot beat the cosine
        if bound > cos:
            if bound < floor:
                continue
            if nq not in nc and nc not in nq:
                edit = 1.0 - levenshtein(nq, nc) / max(lq, len(nc))
        score = min(1.0, max(cos, edit, 0.0))
        if score < floor:
            continue
        key = (-score, len(cand), cand)
        if best_key is None or key < best_key:
            best_key = key
            best = (cand, score)
            floor = score
    return best
