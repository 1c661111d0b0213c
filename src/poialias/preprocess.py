"""POI-name text normalization and near-duplicate spelling consolidation.

Raw delivery-address names are noisy: stray whitespace and punctuation,
full-width characters, and one-or-two-keystroke misspellings that split the
writers of one alias across several spellings. `clean_text` fixes the
surface noise; `cluster_near_duplicates` merges spellings whose normalized
edit distance chains below a threshold.
"""

from __future__ import annotations

import functools
import math
import string
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import EmptyInputError, InvalidConfigError

# full-width ASCII variants (U+FF01..U+FF5E) fold to their ASCII forms
_FOLD = {code: code - 0xFEE0 for code in range(0xFF01, 0xFF5F)}
_FOLD[0x3000] = 0x20  # ideographic space

# stripped outright: ASCII punctuation plus common CJK punctuation.
# Digits are kept; building numbers are meaningful.
_STRIP = set(string.punctuation) | set("，。！？、（）【】")


@functools.cache
def clean_text(raw: str) -> str:
    """Normalize one raw POI name.

    Full-width alphanumerics fold to half-width, Latin letters lower-case,
    all whitespace and the fixed punctuation set disappear, and CJK
    characters pass through verbatim. An empty result is legal and marks
    the record for exclusion downstream.

    Memoized by value: the same names recur on every address and label row
    and in several loaders, and each distinct raw name costs one cleaned
    string, held for the life of the process.
    """
    folded = raw.translate(_FOLD)
    out = []
    for ch in folded:
        if ch.isspace() or ch in _STRIP:
            continue
        out.append(ch.lower())
    return "".join(out)


def normalized_edit_distance(a: str, b: str) -> float:
    """Levenshtein distance divided by the longer length; 0.0 for two empties.

    No edit path is longer than the longer string, so the cutoff k = m
    never clamps.
    """
    m = max(len(a), len(b))
    if m == 0:
        return 0.0
    return limited_edit_distance(a, b, m) / m


def limited_edit_distance(a: str, b: str, k: int) -> int:
    """Levenshtein distance if it is <= k, else k + 1.

    Bit-parallel (Myers 1999; Hyyrö 2001 for the global distance): the
    shorter string is the pattern, one bit of a Python int per pattern
    position, and each character of the longer string updates the vertical
    deltas of a whole DP column with a fixed number of integer operations.
    `dist` follows the DP's last row, so the result is the exact distance.
    """
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return k + 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if la == 0:
        return lb
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << la) - 1
    top = 1 << (la - 1)
    pv, mv, dist = mask, 0, la
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & top:
            dist += 1
        elif mh & top:
            dist -= 1
        # the DP's first row rises by one per column: shift in a +1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return dist if dist <= k else k + 1


@dataclass
class CanonicalMap:
    """Mapping from each input spelling to its cluster's canonical spelling.

    Idempotent by construction: canonical names map to themselves, and every
    input name appears as a key.
    """

    mapping: dict[str, str] = field(default_factory=dict)
    cluster_sizes: dict[str, int] = field(default_factory=dict)

    def resolve(self, name: str) -> str:
        """Canonical spelling for `name`; unseen names map to themselves."""
        return self.mapping.get(name, name)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _chunked(s: str, pieces: int) -> list[str]:
    """Split `s` into `pieces` contiguous chunks of near-equal length."""
    n = len(s)
    out = []
    start = 0
    for i in range(pieces):
        end = start + (n - start + pieces - i - 1) // (pieces - i)
        out.append(s[start:end])
        start = end
    return out


def _edit_budget(threshold: float, length: int) -> int:
    """Edits allowed to a pair whose longer name has `length` characters;
    the epsilon keeps e.g. 0.35 * 180 = 62.99... at 63."""
    return int(math.floor(threshold * length + 1e-12))


def _candidate_pairs(names: list[str], threshold: float):
    """Yield index pairs that can possibly be within the distance threshold.

    Pigeonhole blocking with a budget per name (the partition filter of
    Pass-Join, Li et al. 2011). A name s allows k_s = floor(threshold * |s|)
    edits when it is the longer name of a pair, and is indexed by its
    k_s + 1 chunks. A pair within the longer name's budget leaves one of
    that name's chunks untouched, so the chunk occurs verbatim as a
    substring of the other name; every name probes its substrings of each
    indexed chunk length. Whether a pair is a candidate thus depends on its
    two names alone, and every candidate is then verified exactly.
    """
    chunk_index: dict[str, list[int]] = defaultdict(list)
    chunk_lengths: set[int] = set()
    for idx, s in enumerate(names):
        for chunk in _chunked(s, _edit_budget(threshold, len(s)) + 1):
            chunk_index[chunk].append(idx)
            chunk_lengths.add(len(chunk))

    seen: set[tuple[int, int]] = set()
    for idx, s in enumerate(names):
        ls = len(s)
        for clen in chunk_lengths:
            if clen > ls:
                continue
            for start in range(ls - clen + 1):
                sub = s[start:start + clen]
                bucket = chunk_index.get(sub)
                if not bucket:
                    continue
                for other in bucket:
                    if other == idx:
                        continue
                    pair = (idx, other) if idx < other else (other, idx)
                    if pair not in seen:
                        seen.add(pair)
                        yield pair


def check_cluster_threshold(threshold: float):
    """Raise InvalidConfigError unless `threshold` lies in (0, 1); NaN does not."""
    if not (0.0 < threshold < 1.0):
        raise InvalidConfigError(f"cluster threshold must lie in (0, 1), got {threshold}")


def cluster_near_duplicates(
    names: list[tuple[str, int]], threshold: float
) -> CanonicalMap:
    """Collapse near-duplicate spellings into canonical names.

    `names` pairs each distinct spelling with its occurrence frequency.
    Two spellings land in the same cluster iff they are connected by a
    chain of pairs with normalized edit distance <= threshold
    (single-linkage on the similarity graph). Each cluster's canonical is
    its most frequent member, ties broken by lexicographic order. The
    result does not depend on input order.
    """
    if not names:
        raise EmptyInputError("cluster_near_duplicates with no names")
    check_cluster_threshold(threshold)

    freq: dict[str, int] = defaultdict(int)
    for name, count in names:
        freq[name] += count
    distinct = sorted(freq)

    uf = _UnionFind(len(distinct))
    for i, j in _candidate_pairs(distinct, threshold):
        a, b = distinct[i], distinct[j]
        lm = max(len(a), len(b))
        k = _edit_budget(threshold, lm)
        d = limited_edit_distance(a, b, k)
        if d <= k and d / lm <= threshold:
            uf.union(i, j)

    clusters: dict[int, list[str]] = defaultdict(list)
    for i, name in enumerate(distinct):
        clusters[uf.find(i)].append(name)

    mapping: dict[str, str] = {}
    sizes: dict[str, int] = {}
    for members in clusters.values():
        canonical = min(members, key=lambda nm: (-freq[nm], nm))
        for nm in members:
            mapping[nm] = canonical
        sizes[canonical] = len(members)
    return CanonicalMap(mapping=mapping, cluster_sizes=sizes)
