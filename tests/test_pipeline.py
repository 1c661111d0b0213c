"""District assembly: cleaning, clustering, profile and registry wiring."""

import numpy as np
import pytest

from poialias.discovery import MetricConfig
from poialias.errors import ConflictingLabelError
from poialias.ingestion import (
    AddressRecord,
    Corpus,
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


def _district(addresses, locations, labels):
    """District d0 of the corpus these records make."""
    corpus = Corpus.from_records(addresses, locations, labels)
    return build_district_data(
        "d0", addresses, locations, corpus.strings, corpus.label_ids, corpus.is_alias
    )


def _locs(users, base=(31.3, 120.5)):
    rng = np.random.default_rng(1)
    return {
        u: np.column_stack(
            [base[0] + rng.normal(0, 1e-4, 6), base[1] + rng.normal(0, 1e-4, 6)]
        )
        for u in users
    }


def test_typo_spellings_merge_into_one_profile():
    addresses = [
        _addr("u1", "LakeView"),
        _addr("u2", "lakeview"),
        _addr("u3", "lakeviev"),  # one edit away
        _addr("u4", "completelyother"),
    ]
    locations = _locs(["u1", "u2", "u3", "u4"])
    labels = [GroundTruthLabel("d0", "stdname", "lakeview", True)]
    dd = _district(addresses, locations, labels)
    assert "lakeview" in dd.profiles
    assert dd.profiles["lakeview"].user_count == 3
    assert "lakeviev" not in dd.profiles


def test_registry_from_labels_splits_standards_and_candidates():
    addresses = [_addr("u1", "alpha"), _addr("u2", "beta"), _addr("u3", "gamma")]
    labels = [
        GroundTruthLabel("d0", "alpha", "beta", True),
        GroundTruthLabel("d0", "alpha", "gamma", False),
    ]
    dd = _district(addresses, _locs(["u1", "u2", "u3"]), labels)
    assert dd.standard_names == ["alpha"]
    assert dd.candidate_names == ["beta", "gamma"]
    assert dd.labels == {("alpha", "beta"): True, ("alpha", "gamma"): False}


def test_orphan_labels_counted(tmp_path):
    users = ["u1", "u2", "u3", "u4"]
    write_address_records(
        str(tmp_path / "addresses.csv"),
        [_addr("u1", "alpha"), _addr("u2", "lakeview"), _addr("u3", "lakeview"), _addr("u4", "lakeviev")],
    )
    write_location_log(str(tmp_path / "locations.csv"), _locs(users))
    write_labels(
        str(tmp_path / "labels.csv"),
        [
            GroundTruthLabel("d0", "alpha", "ghost", True),
            GroundTruthLabel("d0", "alpha", "LakeViev", True),  # a typo spelling
        ],
    )
    corpus = load_corpus(str(tmp_path))
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


def test_conflicting_labels_after_canonicalisation_raise():
    addresses = [_addr("u1", "alpha"), _addr("u2", "lakeview"), _addr("u3", "lakeviev")]
    locations = _locs(["u1", "u2", "u3"])
    agree = [
        GroundTruthLabel("d0", "alpha", "lakeview", True),
        GroundTruthLabel("d0", "alpha", "lakeviev", True),
    ]
    dd = _district(addresses, locations, agree)
    assert dd.labels == {("alpha", dd.canonical_map.resolve("lakeview")): True}
    conflict = [agree[0], GroundTruthLabel("d0", "alpha", "lakeviev", False)]
    with pytest.raises(ConflictingLabelError) as exc:
        _district(addresses, locations, conflict)
    msg = str(exc.value)
    assert "'d0'" in msg and "'lakeview'" in msg and "'lakeviev'" in msg


def test_district_without_labels_scores_no_pairs():
    addresses = [_addr("u1", "alpha"), _addr("u2", "beta")]
    dd = _district(addresses, _locs(["u1", "u2"]), [])
    assert dd.standard_names == []
    pairs = score_city(
        type("C", (), {"districts": {"d0": dd}})(),
        MetricConfig(method="centroid", threshold=0.0),
    )
    assert pairs == {"d0": []}


def test_build_city_skips_unusable_districts():
    corpus = Corpus.from_records(
        [_addr("u1", "!!!", district="dbad"), _addr("u2", "fine", district="dok")],
        _locs(["u1", "u2"]),
        [],
    )
    assert corpus.districts == ["dbad", "dok"]
    city = build_city_data(corpus)
    assert sorted(city.districts) == ["dok"]


def test_score_city_workers_match_sequential(small_city):
    cfg = MetricConfig(method="jaccard", threshold=0.0)
    seq = score_city(small_city.city, cfg, workers=1)
    par = score_city(small_city.city, cfg, workers=4)
    assert sorted(seq) == sorted(par)
    for d in seq:
        assert [
            (p.standard_name, p.candidate_name, p.score) for p in seq[d]
        ] == [(p.standard_name, p.candidate_name, p.score) for p in par[d]]
