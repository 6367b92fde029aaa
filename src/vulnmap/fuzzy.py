"""Approximate string matching: character n-gram cosine blended with edit similarity."""

from __future__ import annotations

import math
import re
from collections import Counter
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


def gram_profile(s: str, gram_size: int = 3) -> GramProfile:
    """Build the n-gram profile of a string padded with one sentinel per side."""
    if gram_size < 2:
        raise ValueError(f"gram_size must be >= 2, got {gram_size}")
    norm = normalize(s)
    if not norm:
        raise EmptyInput(f"no alphanumeric content in {s!r}")
    padded = SENTINEL + norm + SENTINEL
    grams = Counter(
        padded[i : i + gram_size] for i in range(len(padded) - gram_size + 1)
    )
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


def _cosine(pa: GramProfile, pb: GramProfile) -> float:
    small, large = (pa.grams, pb.grams) if len(pa.grams) <= len(pb.grams) else (pb.grams, pa.grams)
    dot = sum(count * large[gram] for gram, count in small.items())
    if dot == 0:
        return 0.0
    return dot / (pa.magnitude * pb.magnitude)


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
    cos = _cosine(gram_profile(na, 3), gram_profile(nb, 3))
    if cos == 0.0:
        cos = _cosine(gram_profile(na, 2), gram_profile(nb, 2))
    edit = 1.0 - levenshtein(na, nb) / max(len(na), len(nb))
    return min(1.0, max(cos, edit, 0.0))


def best_match(
    query: str, candidates: list[str], cutoff: float
) -> tuple[str, float] | None:
    """Pick the candidate most similar to the query, if any clears the cutoff.

    Ties are broken by shortest candidate, then lexicographic order. Scores
    equal ``similarity(query, cand)`` bit for bit, with the query normalized
    and profiled once. The edit distance is at least the length difference,
    so the edit similarity is at most ``bound = 1 - |len(nq) - len(nc)| /
    max(len(nq), len(nc))``; IEEE division and subtraction are monotone, so
    the floats obey it too. A candidate is skipped when ``max(cos, bound)``
    is below the cutoff or strictly below the best score so far, since it
    cannot be chosen, and ``levenshtein`` runs only when the bound exceeds
    the cosine, since otherwise the score is the cosine.
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
        try:
            pc = gram_profile(cand, 3)
        except EmptyInput:
            continue
        nc = pc.source
        cos = _cosine(pq, pc)
        if cos == 0.0:
            if pq2 is None:
                pq2 = gram_profile(nq, 2)
            cos = _cosine(pq2, gram_profile(nc, 2))
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
