"""Associated-user index and mobility profile construction."""

import numpy as np

from poialias.discovery import MetricConfig, score_pairs
from poialias.ingestion import AddressRecord
from poialias.preprocess import CanonicalMap, clean_text, cluster_near_duplicates
from poialias.profile import build_all_profiles, build_associated_users


def _addr(user, name, district="d0"):
    return AddressRecord(user, "prov", "city", district, name)


IDENTITY = CanonicalMap()


def test_associated_users_direct():
    index = build_associated_users(
        [_addr("u1", "A"), _addr("u2", "A"), _addr("u2", "B")], IDENTITY
    )
    assert index == {"a": {"u1", "u2"}, "b": {"u2"}}


def test_associated_users_set_semantics():
    index = build_associated_users([_addr("u1", "A"), _addr("u1", "A")], IDENTITY)
    assert index == {"a": {"u1"}}


def test_associated_users_merge_through_canonical_map():
    # "A!" and "a" both clean to "a"; a near-duplicate "ab" merges via the
    # clustering built from the cleaned names
    records = [_addr("u1", "A!"), _addr("u2", "a"), _addr("u3", "ax")]
    cleaned = {}
    for rec in records:
        c = clean_text(rec.poi_name)
        cleaned[c] = cleaned.get(c, 0) + 1
    cmap = cluster_near_duplicates(sorted(cleaned.items()), 0.5)
    index = build_associated_users(records, cmap)
    assert index == {"a": {"u1", "u2", "u3"}}


def test_associated_users_skips_empty_cleaned_names():
    index = build_associated_users([_addr("u1", "!!!"), _addr("u2", "ok")], IDENTITY)
    assert index == {"ok": {"u2"}}


def test_profile_multiset_union():
    p = [31.0, 120.0]
    q = [31.5, 120.5]
    locations = {"u1": np.array([p, q]), "u2": np.array([q])}
    prof = build_all_profiles({"a": {"u1", "u2"}}, locations)["a"]
    assert prof.user_count == 2
    assert prof.point_count == 3
    rows = sorted(map(tuple, prof.points.tolist()))
    assert rows == sorted([tuple(p), tuple(q), tuple(q)])


def test_profile_user_without_locations_still_counts():
    prof = build_all_profiles({"b": {"u3"}}, {})["b"]
    assert prof.user_count == 1
    assert prof.point_count == 0
    assert prof.points.shape == (0, 2)


def test_profile_point_count_oracle():
    rng = np.random.default_rng(2)
    locations = {
        f"u{i}": np.column_stack([rng.uniform(31, 32, 7), rng.uniform(120, 121, 7)])
        for i in range(10)
    }
    prof = build_all_profiles({"a": set(locations)}, locations)["a"]
    assert prof.point_count == 70
    assert prof.point_count == sum(len(v) for v in locations.values())


def test_profile_monotone_under_user_addition():
    rng = np.random.default_rng(3)
    locations = {
        f"u{i}": np.column_stack([rng.uniform(31, 32, 4), rng.uniform(120, 121, 4)])
        for i in range(5)
    }
    users = set()
    prev = 0
    for i in range(5):
        users.add(f"u{i}")
        prof = build_all_profiles({"a": set(users)}, locations)["a"]
        assert prof.point_count >= prev
        prev = prof.point_count


def test_profile_multiset_is_order_independent():
    rng = np.random.default_rng(4)
    locations = {
        f"u{i}": np.column_stack([rng.uniform(31, 32, 3), rng.uniform(120, 121, 3)])
        for i in range(6)
    }
    prof1 = build_all_profiles({"a": set(locations)}, locations)["a"]
    shuffled = dict(reversed(list(locations.items())))
    prof2 = build_all_profiles({"a": set(shuffled)}, shuffled)["a"]
    assert sorted(map(tuple, prof1.points.tolist())) == sorted(
        map(tuple, prof2.points.tolist())
    )


def test_build_all_profiles_covers_index():
    index = {"a": {"u1"}, "b": {"u2"}}
    locations = {"u1": np.array([[31.0, 120.0]])}
    profiles = build_all_profiles(index, locations)
    assert sorted(profiles) == ["a", "b"]
    assert profiles["a"].point_count == 1
    assert profiles["b"].point_count == 0


def test_sufficiency_flag():
    prof = build_all_profiles({"a": {"u1"}}, {"u1": np.array([[31.0, 120.0]] * 4)})["a"]
    # a profile is sufficient with at least min_profile_points points
    for min_points, scored in ((4, True), (5, False)):
        cfg = MetricConfig(method="centroid", threshold=0.0, min_profile_points=min_points)
        [pair] = score_pairs([prof], [prof], cfg, bbox=None)
        assert (pair.score is not None) is scored
