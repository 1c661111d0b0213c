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
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

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
    never clamps. The pipeline scores editdist grids with `edit_distances`;
    this per-pair form stays as the scalar reference the benchmark's traced
    breakdown rebuilds those scores from.
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

    The one-pair form, for synth's check of one drawn name against a few
    others; batches of pairs go through `edit_distances`.
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


#: code points lie below 0x110000 = 2**21, so a (pattern word, code point)
#: key packs into one int64
_CODE_BITS = 21
_ONE = np.uint64(1)
_HIGH = np.uint64(1 << 63)
#: pairs advanced together; bounds each step's temporary arrays
_LANES = 4096


def edit_distances(names: list[str], left, right) -> np.ndarray:
    """Levenshtein distance of every pair (names[left[p]], names[right[p]]),
    as an int64 array.

    `limited_edit_distance`'s bit-parallel algorithm, run lane-parallel:
    each numpy step advances every pair's bit vectors by one character of
    its text. The shorter name of a pair is its pattern, held as
    ceil(m / 64) uint64 words that hand a horizontal delta from word to word
    (Hyyrö 2003's blocked form), so names of every length run in this one
    kernel; pairs are grouped by their pattern's word count. Each name is
    encoded once, and the match masks of all names are one sorted array of
    (pattern word, code point) keys with OR-reduced bits, so memory grows
    with the names' total length whatever their script.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    lengths = np.array([len(s) for s in names], dtype=np.int64)
    # surrogatepass: a JSONL "\ud800" escape parses to a lone surrogate
    codes = np.frombuffer("".join(names).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    codes = codes.astype(np.int64)
    starts = np.cumsum(lengths) - lengths
    swap = lengths[left] > lengths[right]
    pattern, text = np.where(swap, right, left), np.where(swap, left, right)
    m, n = lengths[pattern], lengths[text]
    words = -(-m // 64)
    out = n.copy()  # an empty pattern: one insertion per text character
    if not words.any():
        return out
    # bit p % 64 of word p // 64 of name x is set under key (x's word, x[p])
    n_words = -(-lengths // 64)
    first_word = np.cumsum(n_words) - n_words
    owner = np.repeat(np.arange(len(names)), lengths)
    pos = np.arange(len(codes)) - starts[owner]
    keys = ((first_word[owner] + pos // 64) << _CODE_BITS) | codes
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    bits = np.left_shift(_ONE, (pos[order] % 64).astype(np.uint64))
    heads = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    peq = keys[heads], np.bitwise_or.reduceat(bits, heads)
    for w in sorted(set(words[words > 0].tolist())):
        group = np.flatnonzero(words == w)
        group = group[np.argsort(-n[group], kind="stable")]  # longest text first
        for lo in range(0, len(group), _LANES):
            lanes = group[lo:lo + _LANES]
            out[lanes] = _advance(
                w, first_word[pattern[lanes]], m[lanes], starts[text[lanes]], n[lanes], codes, peq
            )
    return out


def _advance(n_words: int, slots, m, text_starts, n, codes, peq) -> np.ndarray:
    """Distances of lanes whose patterns take `n_words` words, starting at
    word `slots` of the match masks; `n`, the text lengths, must descend.

    Every uint64 operand is an array or an np.uint64, so no step mixes a
    uint64 with a Python int (under numpy 1.x that yields float64).
    """
    peq_keys, peq_bits = peq
    last = len(peq_keys) - 1
    n_lanes = len(m)
    pv = np.full((n_words, n_lanes), np.iinfo(np.uint64).max, dtype=np.uint64)
    mv = np.zeros((n_words, n_lanes), dtype=np.uint64)
    dist = m.copy()
    # the bit of the pattern's last character carries the DP's last row
    top = np.left_shift(_ONE, ((m - 1) % 64).astype(np.uint64))
    # lanes still reading text at step t, a prefix since lengths descend
    active = np.searchsorted(-n, -np.arange(n[0]), side="left")
    for t, k in enumerate(active.tolist()):
        code = codes[text_starts[:k] + t]
        for w in range(n_words):
            key = ((slots[:k] + w) << _CODE_BITS) | code
            at = np.minimum(np.searchsorted(peq_keys, key), last)
            eq = peq_bits[at]
            eq[peq_keys[at] != key] = 0
            p, q = pv[w, :k], mv[w, :k]
            xv = eq | q
            if w:  # a -1 entering from the word below
                eq |= h_minus
            xh = (((eq & p) + p) ^ p) | eq
            ph = q | ~(xh | p)
            mh = p & xh
            high = top[:k] if w == n_words - 1 else _HIGH
            out_plus, out_minus = (ph & high) != 0, (mh & high) != 0
            ph <<= _ONE
            mh <<= _ONE
            if w:
                ph |= h_plus
                mh |= h_minus
            else:  # the DP's first row rises by one per column: shift in a +1
                ph |= _ONE
            pv[w, :k] = mh | ~(xv | ph)
            mv[w, :k] = ph & xv
            h_plus, h_minus = out_plus, out_minus
        dist[:k] += h_plus
        dist[:k] -= h_minus
    return dist


@dataclass
class CanonicalMap:
    """Mapping from each input spelling to its cluster's canonical spelling.

    Idempotent by construction: canonical names map to themselves, and every
    input name appears as a key.
    """

    mapping: dict[str, str] = field(default_factory=dict)

    @property
    def cluster_sizes(self) -> dict[str, int]:
        """The member count of each canonical name, in order of first mapping."""
        return dict(Counter(self.mapping.values()))

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
    pairs = np.array(list(_candidate_pairs(distinct, threshold)), dtype=np.int64).reshape(-1, 2)
    if len(pairs):
        lengths = np.array([len(s) for s in distinct], dtype=np.int64)
        budgets = np.array([_edit_budget(threshold, n) for n in lengths.tolist()], dtype=np.int64)
        longer = np.where(lengths[pairs[:, 0]] >= lengths[pairs[:, 1]], pairs[:, 0], pairs[:, 1])
        lm, k = lengths[longer], budgets[longer]
        d = edit_distances(distinct, pairs[:, 0], pairs[:, 1])
        for i, j in pairs[(d <= k) & (d / lm <= threshold)].tolist():
            uf.union(i, j)

    clusters: dict[int, list[str]] = defaultdict(list)
    for i, name in enumerate(distinct):
        clusters[uf.find(i)].append(name)

    mapping: dict[str, str] = {}
    for members in clusters.values():
        canonical = min(members, key=lambda nm: (-freq[nm], nm))
        for nm in members:
            mapping[nm] = canonical
    return CanonicalMap(mapping)
