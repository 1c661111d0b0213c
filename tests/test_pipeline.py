"""District assembly: cleaning, clustering, profile and registry wiring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poialias.discovery import MetricConfig
from poialias.distribution import BoundingBox
from poialias.errors import ConflictingLabelError
from poialias.ingestion import (
    AddressRecord,
    GroundTruthLabel,
    load_corpus,
    write_address_records,
    write_labels,
    write_location_log,
)
from poialias.pipeline import build_city_data, build_district_data, score_city
from poialias.preprocess import clean_text


def _addr(user, name, district="d0"):
    return AddressRecord(user, "p", "c", district, name)


def _corpus(data, addresses, locations, labels):
    """The corpus that `load_corpus` reads from these records, written to `data`."""
    write_address_records(str(data / "addresses.csv"), addresses)
    write_location_log(str(data / "locations.csv"), locations)
    write_labels(str(data / "labels.csv"), labels)
    return load_corpus(str(data))


def _district(data, addresses, locations, labels):
    """District d0 of the corpus these records make."""
    corpus = _corpus(data, addresses, locations, labels)
    return build_district_data(
        "d0", corpus.addresses, corpus.locations, corpus.strings, corpus.label_ids, corpus.is_alias
    )


def reference_labels(canonical_map, names, labels):
    """The labels as a name-keyed (std, cand) -> is_alias map, the split of
    the profiled `names` it implies, and its walk by name onto that grid:
    the reference for the name split, `label_pos` and `label_is_alias`.

    `labels` are (standard, candidate, is_alias) rows in file order. None
    when two rows resolve to one pair with different values.
    """
    by_pair: dict = {}
    for std, cand, is_alias in labels:
        pair = tuple(canonical_map.resolve(clean_text(n)) for n in (std, cand))
        if by_pair.setdefault(pair, is_alias) != is_alias:
            return None
    registry = {s for s, _ in by_pair}
    stds = sorted(n for n in names if n in registry)
    cands = sorted(n for n in names if n not in registry)
    rows = {n: k for k, n in enumerate(stds)}
    cols = {n: k for k, n in enumerate(cands)}
    pos = [rows[s] * len(cols) + cols[c] if s in rows and c in cols else -1 for s, c in by_pair]
    return stds, cands, pos, list(by_pair.values())


def _locs(users, base=(31.3, 120.5)):
    rng = np.random.default_rng(1)
    return {
        u: np.column_stack(
            [base[0] + rng.normal(0, 1e-4, 6), base[1] + rng.normal(0, 1e-4, 6)]
        )
        for u in users
    }


def test_typo_spellings_merge_into_one_profile(tmp_path):
    addresses = [
        _addr("u1", "LakeView"),
        _addr("u2", "lakeview"),
        _addr("u3", "lakeviev"),  # one edit away
        _addr("u4", "completelyother"),
    ]
    locations = _locs(["u1", "u2", "u3", "u4"])
    labels = [GroundTruthLabel("d0", "stdname", "lakeview", True)]
    dd = _district(tmp_path, addresses, locations, labels)
    assert "lakeview" in dd.profiles
    assert dd.profiles["lakeview"].user_count == 3
    assert "lakeviev" not in dd.profiles


def test_registry_from_labels_splits_standards_and_candidates(tmp_path):
    addresses = [_addr("u1", "alpha"), _addr("u2", "beta"), _addr("u3", "gamma")]
    labels = [
        GroundTruthLabel("d0", "alpha", "beta", True),
        GroundTruthLabel("d0", "alpha", "gamma", False),
    ]
    dd = _district(tmp_path, addresses, _locs(["u1", "u2", "u3"]), labels)
    assert dd.standard_names == ["alpha"]
    assert dd.candidate_names == ["beta", "gamma"]
    assert dd.label_pos.tolist() == [0, 1]
    assert dd.label_is_alias.tolist() == [True, False]


def test_orphan_labels_counted(tmp_path):
    corpus = _corpus(
        tmp_path,
        [_addr("u1", "alpha"), _addr("u2", "lakeview"), _addr("u3", "lakeview"), _addr("u4", "lakeviev")],
        _locs(["u1", "u2", "u3", "u4"]),
        [
            GroundTruthLabel("d0", "alpha", "ghost", True),
            GroundTruthLabel("d0", "alpha", "LakeViev", True),  # a typo spelling
        ],
    )
    assert [(lb.candidate_name, reason) for lb, reason in corpus.orphan_labels] == [
        ("ghost", "candidate_name not in district addresses")
    ]
    # the orphans are exactly the labels naming a POI without a profile
    dd = build_city_data(corpus).districts["d0"]
    unprofiled = [
        lb
        for lb in corpus.labels
        if any(
            dd.canonical_map.resolve(clean_text(n)) not in dd.profiles
            for n in (lb.standard_name, lb.candidate_name)
        )
    ]
    assert unprofiled == [lb for lb, _ in corpus.orphan_labels]


def test_conflicting_labels_after_canonicalisation_raise(tmp_path):
    addresses = [_addr("u1", "alpha"), _addr("u2", "lakeview"), _addr("u3", "lakeviev")]
    locations = _locs(["u1", "u2", "u3"])
    agree = [
        GroundTruthLabel("d0", "alpha", "lakeview", True),
        GroundTruthLabel("d0", "alpha", "lakeviev", True),
    ]
    dd = _district(tmp_path, addresses, locations, agree)
    assert dd.canonical_map.resolve("lakeviev") == dd.canonical_map.resolve("lakeview")
    assert (dd.label_pos.tolist(), dd.label_is_alias.tolist()) == ([0], [True])
    conflict = [agree[0], GroundTruthLabel("d0", "alpha", "lakeviev", False)]
    with pytest.raises(ConflictingLabelError) as exc:
        _district(tmp_path, addresses, locations, conflict)
    msg = str(exc.value)
    assert "'d0'" in msg and "'lakeview'" in msg and "'lakeviev'" in msg


def test_district_without_labels_scores_no_pairs(tmp_path):
    addresses = [_addr("u1", "alpha"), _addr("u2", "beta")]
    dd = _district(tmp_path, addresses, _locs(["u1", "u2"]), [])
    assert dd.standard_names == []
    pairs = score_city(
        type("C", (), {"districts": {"d0": dd}})(),
        MetricConfig(method="centroid", threshold=0.0),
    )
    assert list(pairs) == ["d0"]
    assert len(pairs["d0"]) == 0 and list(pairs["d0"]) == []


def test_build_city_skips_unusable_districts(tmp_path):
    corpus = _corpus(
        tmp_path,
        [_addr("u1", "!!!", district="dbad"), _addr("u2", "fine", district="dok")],
        _locs(["u1", "u2"]),
        [],
    )
    assert corpus.districts == ["dbad", "dok"]
    city = build_city_data(corpus)
    assert sorted(city.districts) == ["dok"]


@pytest.mark.parametrize("located", [["u1", "u2", "u4"], ["u2"]])
def test_bbox_is_the_box_of_all_profile_points(located):
    # u1 wrote two names, so its points sit in two profiles; u2's one point
    # lies outside everyone else's; u3 has no points
    rng = np.random.default_rng(5)
    points = {
        "u1": np.column_stack([rng.uniform(31.2, 31.4, 40), rng.uniform(120.4, 120.6, 40)]),
        "u2": np.array([[31.5, 120.3]]),
        "u4": np.column_stack([rng.uniform(31.1, 31.3, 9), rng.uniform(120.5, 120.7, 9)]),
    }
    written = [("u1", "alpha"), ("u1", "beta"), ("u2", "gamma"), ("u3", "delta"), ("u4", "beta")]
    addresses = [_addr(u, n) for u, n in written]
    dd = build_district_data(
        "d0", addresses, {u: points[u] for u in located}, ["d0"], np.zeros((0, 3), np.int32), np.zeros(0, bool)
    )
    assert sorted(dd.profiles) == ["alpha", "beta", "delta", "gamma"]
    all_points = np.concatenate([p.points for p in dd.profiles.values()])
    assert len(all_points) == sum(len(points[u]) * (2 if u == "u1" else 1) for u in located)
    assert dd.bbox == BoundingBox.from_points(all_points)


def test_score_city_workers_match_sequential(small_city):
    cfg = MetricConfig(method="jaccard", threshold=0.0)
    seq = score_city(small_city.city, cfg, workers=1)
    par = score_city(small_city.city, cfg, workers=4)
    assert sorted(seq) == sorted(par)
    for d in seq:
        assert [
            (p.standard_name, p.candidate_name, p.score) for p in seq[d]
        ] == [(p.standard_name, p.candidate_name, p.score) for p in par[d]]


#: POI spellings: "lakeviev" and "LakeView" cluster with "lakeview"
_SPELLINGS = ["lakeview", "lakeviev", "LakeView", "riverside", "harbour", "sunsetplaza"]
#: label names: the spellings plus one no address uses
_LABEL_NAMES = _SPELLINGS + ["ghost"]


@settings(max_examples=200, deadline=None)
@given(
    used=st.lists(st.sampled_from(_SPELLINGS), max_size=8),
    rows=st.lists(
        st.tuples(st.sampled_from(_LABEL_NAMES), st.sampled_from(_LABEL_NAMES), st.booleans()),
        max_size=8,
    ),
    repeats=st.lists(st.integers(0, 7), max_size=4),
)
def test_label_arrays_match_the_name_keyed_reference(used, rows, repeats):
    # repeated rows agree; a standard may come back as a candidate, a label
    # may name "ghost", and a pair of spellings may resolve to one name
    labels = rows + [rows[k] for k in repeats if k < len(rows)]
    addresses = [_addr(f"u{k}", name) for k, name in enumerate(used)]
    strings = ["d0", *_LABEL_NAMES]
    label_ids = np.array(
        [[0, strings.index(s), strings.index(c)] for s, c, _ in labels], dtype=np.int32
    ).reshape(-1, 3)
    is_alias = np.array([a for _, _, a in labels], dtype=bool)
    # labels change neither the canonical map nor the profiles
    plain = build_district_data("d0", addresses, {}, strings, label_ids[:0], is_alias[:0])
    want = reference_labels(plain.canonical_map, plain.profiles, labels)
    if want is None:
        with pytest.raises(ConflictingLabelError):
            build_district_data("d0", addresses, {}, strings, label_ids, is_alias)
        return
    dd = build_district_data("d0", addresses, {}, strings, label_ids, is_alias)
    assert (dd.standard_names, dd.candidate_names, dd.label_pos.tolist(), dd.label_is_alias.tolist()) == want
    assert dd.label_pos.dtype == np.int64 and dd.label_is_alias.dtype == bool
