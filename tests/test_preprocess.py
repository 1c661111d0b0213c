"""Text cleaning, edit distances, and near-duplicate clustering."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poialias.errors import EmptyInputError, InvalidConfigError
from poialias.preprocess import (
    _candidate_pairs,
    clean_text,
    cluster_near_duplicates,
    limited_edit_distance,
    normalized_edit_distance,
)

# --------------------------------------------------------------- clean_text


def test_clean_strips_space_punct_and_lowercases():
    assert clean_text(" XiGu  YaYuan! ") == "xiguyayuan"


def test_clean_folds_fullwidth():
    assert clean_text("ＸｉＧｕ") == "xigu"
    assert clean_text("１２３") == "123"


def test_clean_preserves_cjk():
    assert clean_text("西谷雅苑") == "西谷雅苑"


def test_clean_strips_cjk_punctuation():
    assert clean_text("西谷，雅苑。") == "西谷雅苑"


def test_clean_keeps_digits():
    assert clean_text("Block 3, No.7") == "block3no7"


def test_clean_empty_result_is_legal():
    assert clean_text(" !!! ") == ""


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40))
def test_clean_is_idempotent(raw):
    once = clean_text(raw)
    assert clean_text(once) == once


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40))
def test_clean_is_a_pure_function_under_the_cache(raw):
    first = clean_text(raw)
    assert first == clean_text.__wrapped__(raw)
    assert clean_text(raw) == first


# ------------------------------------------------------------ edit distance


def _full_dp(a: str, b: str) -> int:
    """Oracle: the textbook Levenshtein DP over the whole table."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_levenshtein_classic():
    assert _full_dp("kitten", "sitting") == 3
    assert limited_edit_distance("kitten", "sitting", 7) == 3
    assert normalized_edit_distance("kitten", "sitting") == 3 / 7


def test_levenshtein_identity_and_empty():
    assert normalized_edit_distance("abc", "abc") == 0.0
    assert normalized_edit_distance("", "abcd") == 1.0
    assert normalized_edit_distance("abcd", "") == 1.0
    assert limited_edit_distance("", "abcd", 4) == 4


def test_normalized_distance_bounds():
    assert normalized_edit_distance("aaa", "zzz") == 1.0
    assert normalized_edit_distance("", "") == 0.0
    assert normalized_edit_distance("ab", "ab") == 0.0


# Arbitrary Unicode, with a few repeated code points (an astral emoji, a
# combining accent) so that long strings still share characters. Lengths
# up to 150 cross the 30-, 60- and 64-bit boundaries of the bit vectors.
_TEXT = st.text(
    alphabet=st.characters() | st.sampled_from("ab\u0301\U0001f600"), max_size=150
)


@settings(max_examples=300, deadline=None)
@given(_TEXT, _TEXT, st.data())
def test_limited_matches_full_dp(a, b, data):
    k = data.draw(st.integers(min_value=-1, max_value=max(len(a), len(b)) + 1))
    full = _full_dp(a, b)
    expected = full if full <= k else k + 1
    assert limited_edit_distance(a, b, k) == expected
    assert limited_edit_distance(b, a, k) == expected


@settings(max_examples=300, deadline=None)
@given(_TEXT, _TEXT)
def test_normalized_distance_matches_full_dp(a, b):
    m = max(len(a), len(b))
    expected = _full_dp(a, b) / m if m else 0.0
    assert normalized_edit_distance(a, b) == expected
    assert normalized_edit_distance(b, a) == expected


@pytest.mark.parametrize("n", [63, 64, 65])
def test_edit_distance_at_word_boundaries(n):
    rng = random.Random(n)
    base = "".join(rng.choice("abc\U0001f600") for _ in range(n))
    others = [
        base,
        base[:-1] + "z",
        "z" + base[1:],
        base[1:],
        base + "z",
        base[::-1],
        "".join(rng.choice("abc\U0001f600") for _ in range(n)),
        "".join(rng.choice("abc") for _ in range(n + 1)),
    ]
    for other in others:
        full = _full_dp(base, other)
        for k in (full - 1, full, n + 1):
            expected = full if full <= k else k + 1
            assert limited_edit_distance(base, other, k) == expected
            assert limited_edit_distance(other, base, k) == expected
        assert normalized_edit_distance(base, other) == full / max(n, len(other))


# --------------------------------------------------------------- clustering


def test_cluster_merges_near_duplicates_of_one_base():
    names = [("xiguyayuan", 100), ("xiguyayuan1", 3), ("xiguyyuan", 2)]
    # oracle: each variant chains to the base within the threshold
    assert normalized_edit_distance("xiguyayuan", "xiguyayuan1") <= 0.2
    assert normalized_edit_distance("xiguyayuan", "xiguyyuan") <= 0.2
    cmap = cluster_near_duplicates(names, 0.2)
    assert cmap.mapping == {
        "xiguyayuan": "xiguyayuan",
        "xiguyayuan1": "xiguyayuan",
        "xiguyyuan": "xiguyayuan",
    }
    assert cmap.cluster_sizes == {"xiguyayuan": 3}


def test_cluster_keeps_distant_names_apart():
    cmap = cluster_near_duplicates([("aaa", 5), ("zzz", 5)], 0.1)
    assert cmap.mapping == {"aaa": "aaa", "zzz": "zzz"}


def test_cluster_single_name():
    cmap = cluster_near_duplicates([("lonely", 1)], 0.2)
    assert cmap.mapping == {"lonely": "lonely"}


def test_cluster_canonical_tie_breaks_lexicographically():
    cmap = cluster_near_duplicates([("abcx", 5), ("abcy", 5)], 0.3)
    assert cmap.mapping["abcy"] == "abcx"


def test_cluster_mapping_is_idempotent():
    names = [("banana", 10), ("bananna", 1), ("panana", 2), ("orange", 7)]
    cmap = cluster_near_duplicates(names, 0.2)
    for raw, canon in cmap.mapping.items():
        assert cmap.mapping[canon] == canon
    # re-clustering the canonical set changes nothing
    canonicals = sorted(set(cmap.mapping.values()))
    again = cluster_near_duplicates([(c, 1) for c in canonicals], 0.2)
    assert again.mapping == {c: c for c in canonicals}


def test_cluster_is_order_independent():
    names = [("banana", 10), ("bananna", 1), ("panana", 2), ("orange", 7), ("orenge", 3)]
    base = cluster_near_duplicates(names, 0.25)
    for perm in itertools.permutations(names):
        assert cluster_near_duplicates(list(perm), 0.25).mapping == base.mapping


def test_cluster_size_bound_and_exactness_condition():
    # no pair within threshold: every name stays its own canonical
    names = [("alpha", 1), ("bravon", 2), ("charlie", 3)]
    cmap = cluster_near_duplicates(names, 0.15)
    assert len(cmap.cluster_sizes) == len(names)


def test_cluster_chain_connectivity_is_single_linkage():
    # a-b within threshold, b-c within threshold, a-c NOT: still one cluster
    a, b, c = "aaaaaaaaaa", "aaaaaaaabb", "aaaaaabbbb"
    thr = 0.25
    assert normalized_edit_distance(a, b) <= thr
    assert normalized_edit_distance(b, c) <= thr
    assert normalized_edit_distance(a, c) > thr
    cmap = cluster_near_duplicates([(a, 3), (b, 2), (c, 1)], thr)
    assert len(set(cmap.mapping.values())) == 1


def test_cluster_reduction_desk_scale():
    # miniature of the perturbation-collapse construction: every variant
    # sits within threshold of its base, bases far apart
    import numpy as np

    rng = np.random.default_rng(4)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    bases = set()
    while len(bases) < 30:
        bases.add("".join(alphabet[i] for i in rng.integers(0, 26, 12)))
    names = []
    for base in sorted(bases):
        names.append((base, 50))
        for _ in range(5):
            pos = int(rng.integers(0, len(base)))
            ch = alphabet[int(rng.integers(0, 26))]
            names.append((base[:pos] + ch + base[pos + 1:], 1))
    cmap = cluster_near_duplicates(names, 0.2)
    assert len(set(cmap.mapping.values())) == 30


# Latin, CJK and an astral code point; a small alphabet makes near-duplicates
_NAME_CHARS = "ab\u4e2d\u6587\U0001f600"


@st.composite
def _near_duplicate_names(draw):
    """Distinct names, some a few edits from another, some of one character."""
    max_len = draw(st.sampled_from([3, 12, 60]))
    names = draw(st.lists(st.text(_NAME_CHARS, min_size=1, max_size=max_len), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 8))):
        s = list(draw(st.sampled_from(names)))
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(s)))
            op, ch = draw(st.sampled_from("sid")), draw(st.sampled_from(_NAME_CHARS))
            if op == "i":
                s.insert(i, ch)
            elif i < len(s) and op == "s":
                s[i] = ch
            elif i < len(s):
                del s[i]
        if s:
            names.append("".join(s))
    return sorted(set(names))


def _single_linkage_oracle(names, threshold):
    """Union-find over every pair within the threshold; each name maps to
    its component's lexicographically smallest member."""
    parent = {n: n for n in names}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in itertools.combinations(names, 2):
        if _full_dp(a, b) / max(len(a), len(b)) <= threshold:
            parent[find(a)] = find(b)
    members = {}
    for n in names:
        members.setdefault(find(n), []).append(n)
    return {n: min(members[find(n)]) for n in names}


@settings(max_examples=200, deadline=None)
@given(_near_duplicate_names(), st.sampled_from([0.1, 0.2, 0.25, 0.35, 0.5, 0.9]))
# 0.35 * 180 rounds to 62.99..., but 63 edits in 180 characters is 0.35
@example(["a" * 180, "b" * 63 + "a" * 117, "b" * 64 + "a" * 116], 0.35)
# names far shorter than the longest, each split by its own budget
@example(["a", "b", "ab", "\U0001f600" * 40, "\U0001f600" * 39 + "a"], 0.35)
def test_cluster_equals_brute_force_single_linkage(names, threshold):
    cmap = cluster_near_duplicates([(n, 1) for n in names], threshold)
    assert cmap.mapping == _single_linkage_oracle(names, threshold)


def test_cluster_rejects_bad_inputs():
    with pytest.raises(EmptyInputError):
        cluster_near_duplicates([], 0.2)
    with pytest.raises(InvalidConfigError):
        cluster_near_duplicates([("a", 1)], 1.5)


def _candidate_names(names, threshold):
    return {frozenset((names[i], names[j])) for i, j in _candidate_pairs(names, threshold)}


@settings(max_examples=300, deadline=None)
@given(
    _near_duplicate_names(),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=False),
)
def test_a_pair_is_a_candidate_whatever_other_names_it_is_clustered_with(names, threshold):
    # each name is split by its own budget, so the candidate set of a list
    # is the union of what each pair gives on its own
    whole = _candidate_names(names, threshold)
    for a, b in itertools.combinations(names, 2):
        assert (frozenset((a, b)) in whole) == bool(_candidate_names([a, b], threshold)), (a, b)


def test_one_long_name_adds_only_its_own_candidates():
    rng = random.Random(17)
    chars = [chr(0x4E00 + i) for i in range(2500)]
    names = set()
    while len(names) < 2000:
        base = "".join(rng.choices(chars, k=rng.randint(4, 12)))
        i = rng.randrange(len(base))
        names.update((base, base[:i] + rng.choice(chars) + base[i + 1:]))
    names = sorted(names)
    before = _candidate_names(names, 0.2)
    assert before  # the typo variants are candidates of their bases
    long_name = "".join(rng.choices(chars, k=60))
    with_long = [*names, long_name]
    # streamed, so a filter that makes every pair a candidate fails at once
    for i, j in _candidate_pairs(with_long, 0.2):
        pair = frozenset((with_long[i], with_long[j]))
        assert long_name in pair or pair in before, sorted(pair)
    assert before <= _candidate_names(with_long, 0.2)
