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


def best_match(
    query: str, candidates: list[str], cutoff: float
) -> tuple[str, float] | None:
    """Pick the candidate most similar to the query, if any clears the cutoff.

    Ties are broken by shortest candidate, then lexicographic order. Scores
    equal ``similarity(query, cand)`` bit for bit, with the query normalized
    and profiled once and each candidate scored from its gram list. The edit
    distance is at least the length difference, so the edit similarity is at
    most ``bound = 1 - |len(nq) - len(nc)| / max(len(nq), len(nc))``; IEEE
    division and subtraction are monotone, so the floats obey it too. A
    candidate is skipped when ``max(cos, bound)`` is below the cutoff or
    strictly below the best score so far, since it cannot be chosen, and
    ``levenshtein`` runs only when the bound exceeds the cosine, since
    otherwise the score is the cosine.
    """
    try:
        pq = gram_profile(query, 3)
    except EmptyInput:
        return None
    nq = pq.source
    pq2: GramProfile | None = None
    best_key: tuple[float, int, str] | None = None
    best: tuple[str, float] | None = None
    for cand in candidates:
        nc = normalize(cand)
        if not nc:
            continue
        cos = _cosine_to(pq, _grams(nc, 3))
        if cos == 0.0:
            if pq2 is None:
                pq2 = gram_profile(nq, 2)
            cos = _cosine_to(pq2, _grams(nc, 2))
        longest = max(len(nq), len(nc))
        bound = 1.0 - abs(len(nq) - len(nc)) / longest
        upper = max(cos, bound)
        if upper < cutoff or (best is not None and upper < best[1]):
            continue
        edit = bound if bound <= cos else 1.0 - levenshtein(nq, nc) / longest
        score = min(1.0, max(cos, edit, 0.0))
        if score < cutoff:
            continue
        key = (-score, len(cand), cand)
        if best_key is None or key < best_key:
            best_key = key
            best = (cand, score)
    return best
