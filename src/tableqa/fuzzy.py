"""String similarity and fuzzy matching.

Two different distances are used on purpose: value matching uses the
normalized indel ratio (insertions/deletions only, substitutions cost 2),
while column-name correction uses plain Levenshtein distance with unit
costs.  Value matches use the paper's two fixed, inclusive thresholds:
MATCH_THRESHOLD (90) for clarify's stored-format hints and
FILTER_THRESHOLD (75) for the fuzzy round of filter_contains.

Indel similarity goes through the length of the longest common
subsequence, since D_indel(a, b) = |a| + |b| - 2 * LCS(a, b).  The LCS
length is computed bit-parallel (Allison & Dix 1986; Hyyrö 2004,
"Bit-parallel LCS-length computation revisited"): one string becomes a
per-character bitmask over Python ints, and each character of the other
string costs a constant number of integer operations, whatever the
lengths.  `best_fuzzy_match` builds the target's masks once and reuses
them for every value, and skips a value whose score cannot reach the
threshold or the best so far: an indel distance is at least the length
difference, so 100 * (1 - |len(t) - len(v)| / (len(t) + len(v))) bounds
the score (the length filter of Gravano et al., VLDB 2001).  The bound
takes the lowercased lengths ("İ" lowercases to two characters) and the
score's own float operations, which are monotone, so it is exact.

Levenshtein distance is bit-parallel too, over the same `_match_masks`:
the bit-vector algorithm of Myers (J. ACM 46(3), 1999), in the global
edit-distance form given by Hyyrö ("Explaining and extending the
bit-parallel approximate string matching algorithm of Myers", 2001).
The columns of the DP matrix are kept as vertical +1/-1 delta vectors,
a 1 is shifted in at row 0 (which makes the match global rather than a
substring search), and the distance is tracked at the last row.
`correct_name` builds the name's masks once and reuses them for every
candidate.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional, Sequence

from .table_core import Cell, render_cell


MATCH_THRESHOLD = 90
FILTER_THRESHOLD = 75


def _match_masks(text: str) -> dict[str, int]:
    """Bit i of masks[ch] is set where text[i] == ch."""
    masks: dict[str, int] = {}
    for i, ch in enumerate(text):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    return masks


def _indel_similarity(masks: dict[str, int], length: int, other: str) -> float:
    """similarity(text, other) for the text that `masks` and `length`
    describe."""
    total = length + len(other)
    if total == 0:
        return 100.0
    full = (1 << length) - 1
    v = full
    for ch in other:
        u = v & masks.get(ch, 0)
        v = ((v + u) | (v - u)) & full
    lcs = length - v.bit_count()
    # Not the algebraically equal 200 * lcs / total: that can round
    # differently in the last place and flip a score sitting exactly on
    # a threshold.
    indel = total - 2 * lcs
    return 100.0 * (1.0 - indel / total)


def similarity(a: str, b: str) -> float:
    """Normalized indel similarity on a 0..100 scale.

    100 * (1 - D_indel(a, b) / (|a| + |b|)), where D_indel counts only
    insertions and deletions.  Two empty strings score 100.  Callers are
    responsible for lowercasing.
    """
    return _indel_similarity(_match_masks(b), len(b), a)


def _edit_distance(masks: dict[str, int], length: int, other: str) -> int:
    """levenshtein(text, other) for the text that `masks` and `length`
    describe."""
    if length == 0:
        return len(other)
    full = (1 << length) - 1
    last = 1 << (length - 1)
    vp, vn, dist = full, 0, length
    for ch in other:
        x = masks.get(ch, 0) | vn
        d0 = (((x & vp) + vp) ^ vp) | x
        hp = vn | (~(d0 | vp) & full)
        hn = vp & d0
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        hp = ((hp << 1) | 1) & full
        hn = (hn << 1) & full
        vp = hn | (~(d0 | hp) & full)
        vn = hp & d0
    return dist


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance with unit-cost insert/delete/substitute."""
    return _edit_distance(_match_masks(a), len(a), b)


def best_fuzzy_match(values: Sequence[Cell], target: str, threshold: int) -> Optional[Cell]:
    """Best-scoring value against `target`, or None below `threshold`.

    Missing values are skipped, and the others compared lowercased.  A
    score exactly at the threshold matches.  Ties keep the first value.
    """
    best_val: Optional[Cell] = None
    best_score = -1.0
    target_lower = target.lower()
    masks, length = _match_masks(target_lower), len(target_lower)
    for v in values:
        if v is None:
            continue
        lowered = render_cell(v).lower()
        total = length + len(lowered)
        # The length bound on the score (see the module docstring).
        if total and 100.0 * (1.0 - abs(length - len(lowered)) / total) < max(threshold, best_score):
            continue
        score = _indel_similarity(masks, length, lowered)
        if score > best_score:
            best_val, best_score = v, score
    if best_val is not None and best_score >= threshold:
        return best_val
    return None


def correct_name(name: str, candidates: Sequence[str]) -> str:
    """Snap `name` to the closest candidate by Levenshtein distance.

    An exact match passes through; otherwise the minimal-distance
    candidate wins, ties broken by candidate order.  No lowercasing here.
    """
    if not candidates:
        raise ValueError("correct_name requires at least one candidate")
    if name in candidates:
        return name
    masks, length = _match_masks(name), len(name)
    best = candidates[0]
    best_dist = _edit_distance(masks, length, best)
    for cand in islice(candidates, 1, None):
        if best_dist == 1:
            # Every candidate differs from `name`, and ties keep the
            # earlier one.
            break
        # The distance is at least the length difference.
        if abs(length - len(cand)) >= best_dist:
            continue
        dist = _edit_distance(masks, length, cand)
        if dist < best_dist:
            best, best_dist = cand, dist
    return best
