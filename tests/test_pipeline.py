"""District assembly: cleaning, clustering, profile and registry wiring,
and the built-city file."""

import contextlib
import dataclasses
import json
import logging
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poialias import ingestion, pipeline
from poialias.discovery import MetricConfig
from poialias.distribution import BoundingBox
from poialias.errors import ConflictingLabelError
from poialias.ingestion import (
    AddressRecord,
    GroundTruthLabel,
    load_corpus,
    partition_by_district,
    write_address_records,
    write_labels,
    write_location_log,
)
from poialias.pipeline import DistrictData, build_city_data, build_district_data, load_city, score_city
from poialias.preprocess import clean_text
from poialias.synth import SynthConfig, generate_city


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
    assert len(pairs["d0"]) == 0 and pairs["d0"].score.tolist() == []


def test_build_city_skips_unusable_districts(tmp_path):
    corpus = _corpus(
        tmp_path,
        [_addr("u1", "!!!", district="dbad"), _addr("u2", "fine", district="dok")],
        _locs(["u1", "u2"]),
        [],
    )
    city = build_city_data(corpus)
    assert sorted(city.districts) == ["dok"]
    assert city.summary.address_counts == {"dbad": 1, "dok": 1}
    assert city.summary.raw_names == {"dok": ["fine"]}


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
        assert (seq[d].standard_names, seq[d].candidate_names) == (par[d].standard_names, par[d].candidate_names)
        assert seq[d].score.tobytes() == par[d].score.tobytes()


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


# ------------------------------------------------------------ the city file


def reference_city(corpus, cluster_threshold=pipeline.DEFAULT_CLUSTER_THRESHOLD):
    """Every district that `build_district_data` builds from `corpus`, in
    sorted order, skipping those with neither usable names nor labels: the
    city as it is built before any array of the city file is made."""
    by_district = partition_by_district(corpus.addresses)
    label_rows: dict = {}
    for row, district in enumerate(corpus.label_ids[:, 0].tolist()):
        label_rows.setdefault(corpus.strings[district], []).append(row)
    districts = {}
    for district in sorted(by_district.keys() | label_rows.keys()):
        rows = np.array(label_rows.get(district, []), dtype=np.int64)
        dd = build_district_data(
            district,
            by_district.get(district, []),
            corpus.locations,
            corpus.strings,
            corpus.label_ids[rows],
            corpus.is_alias[rows],
            cluster_threshold,
        )
        if dd.canonical_map.mapping or len(dd.label_is_alias):
            districts[district] = dd
    return districts


def assert_same_city(got, want):
    """Every DistrictData field equal, dict orders included, and every
    profile's points equal bit for bit."""
    assert [f.name for f in dataclasses.fields(DistrictData)] == [
        "district", "canonical_map", "profiles", "standard_names", "candidate_names",
        "label_pos", "label_is_alias", "bbox",
    ]
    assert list(got) == list(want)
    for name, w in want.items():
        g = got[name]
        assert g.district == w.district
        for field in ("mapping", "cluster_sizes"):
            assert list(getattr(g.canonical_map, field).items()) == list(getattr(w.canonical_map, field).items())
        assert list(g.profiles) == list(w.profiles)
        for p, q in zip(g.profiles.values(), w.profiles.values()):
            assert (p.name, p.user_count, p.point_count) == (q.name, q.user_count, q.point_count)
            assert (type(p.user_count), type(p.point_count)) == (int, int)
            assert (p.points.dtype, p.points.shape) == (q.points.dtype, q.points.shape)
            assert p.points.tobytes() == q.points.tobytes()
        assert (g.standard_names, g.candidate_names) == (w.standard_names, w.candidate_names)
        for field in ("label_pos", "label_is_alias"):
            a, b = getattr(g, field), getattr(w, field)
            assert (a.dtype, a.tolist()) == (b.dtype, b.tolist())
        assert g.bbox == w.bbox


def _city_file(data, fmt="csv"):
    return data / pipeline.CITY_FILE.format(fmt=fmt)


@contextlib.contextmanager
def _no_build():
    """Parsing the inputs and building a district patched to fail: a load
    inside must be a city hit."""
    with mock.patch.object(pipeline, "load_corpus", side_effect=AssertionError("load_corpus")), \
            mock.patch.object(pipeline, "build_district_data", side_effect=AssertionError("build")):
        yield


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_districts=st.integers(1, 3),
    pois=st.integers(1, 6),
    points=st.sampled_from([(0, 0), (0, 4), (3, 8)]),
    typo_rate=st.sampled_from([0.0, 0.5]),
    extra=st.sampled_from(["", "u,p,c,zbad,!!!\n", "u,p,c,zbad,???\nv,p,c,zok,alpha\n"]),
    labels_only=st.booleans(),
)
def test_a_city_hit_equals_a_build(
    seed, n_districts, pois, points, typo_rate, extra, labels_only, tmp_path_factory
):
    # a synth city, plus a district whose names all clean to nothing (skipped)
    # and one that only labels name
    data = tmp_path_factory.mktemp("city")
    config = SynthConfig(
        seed=seed, n_districts=n_districts, pois_per_district=pois, users_per_poi=(1, 3),
        points_per_user=points, typo_rate=typo_rate,
    )
    generate_city(config, str(data))
    with open(data / "addresses.csv", "a", encoding="utf-8") as fh:
        fh.write(extra)
    if labels_only:
        with open(data / "labels.csv", "a", encoding="utf-8") as fh:
            fh.write("zlab,ghost,phantom,1\n")
    corpus = load_corpus(str(data))
    want = reference_city(corpus)
    built = build_city_data(corpus)
    assert_same_city(built.districts, want)
    assert not _city_file(data).exists()  # build_city_data writes no file

    miss = load_city(str(data))
    assert _city_file(data).exists()
    with _no_build():
        hit = load_city(str(data))
    assert_same_city(miss.districts, want)
    assert_same_city(hit.districts, want)
    assert miss.summary == hit.summary == built.summary
    # the points are slices of one array, not a copy per name
    located = [p.points for dd in hit.districts.values() for p in dd.profiles.values() if p.point_count]
    assert all(pts.base is not None and pts.base is located[0].base for pts in located)


def _tiny_city(data, labels="H,lakeview,alpha,1\nH,lakeview,beta,0\n"):
    """A one-district corpus whose two equally frequent spellings lakeview
    and lakeviev merge into lakeviev at the default cluster threshold and
    not at 0.05, plus a district whose only name cleans to nothing."""
    data.mkdir(exist_ok=True)
    (data / "addresses.csv").write_text(
        "user_id,province,city,district,poi_name\n"
        "u1,J,S,H,lakeview\nu2,J,S,H,lakeviev\nu3,J,S,H,alpha\nu4,J,S,H,beta\nu5,J,S,Z,!!!\n"
    )
    (data / "locations.csv").write_text(
        "user_id,lat,lon\n" + "".join(f"u{i},31.{i}1,120.{i}2\nu{i},31.{i}3,120.{i}4\n" for i in range(1, 6))
    )
    if labels is not None:
        (data / "labels.csv").write_text("district,standard_name,candidate_name,is_alias\n" + labels)
    return str(data)


def test_the_city_file_holds_a_key_a_head_and_three_arrays(tmp_path):
    data = _tiny_city(tmp_path / "d")
    load_city(data)
    with np.load(_city_file(tmp_path / "d")) as z:
        assert z.files == ["key", "head", "points", "label_pos", "label_is_alias"]


def test_a_hit_holds_one_object_per_distinct_name(tmp_path):
    # the raw name lakeview is also a spelling; lakeviev is a spelling, a
    # canonical, a profile and a standard
    data = _tiny_city(tmp_path / "d")
    load_city(data)
    with _no_build():
        city = load_city(data)
    dd = city.districts["H"]
    held = [
        *dd.canonical_map.mapping.keys(), *dd.canonical_map.mapping.values(),
        *dd.profiles, *(p.name for p in dd.profiles.values()),
        *dd.standard_names, *dd.candidate_names, *city.summary.raw_names["H"],
    ]
    assert len({id(name) for name in held}) == len(set(held)) == 4


#: damage to one fact of the tiny city's head
_HEAD_DAMAGE = (
    "a name that is a number", "one point count too many", "a standard that is not a profile", "a negative user count"
)


def _edit_head(head: dict, damage: str) -> dict:
    """The head of the tiny city's file with one fact damaged; district H
    holds profiles alpha, beta and lakeviev, and one standard."""
    profiles = head["districts"][0][2]
    if damage == "a name that is a number":
        profiles[0][0] = 7
    elif damage == "one point count too many":
        profiles[0][2] += 1
    elif damage == "a standard that is not a profile":
        head["districts"][0][3] = ["lakeview"]
    elif damage == "a negative user count":
        profiles[0][1] = -1
    return head


@pytest.mark.parametrize(
    "damage",
    [
        "truncated", "another key", "another cluster threshold", "an edited input byte",
        # damage that the zip's CRCs pass
        "a head that is not JSON", *_HEAD_DAMAGE, "a label position out of range",
    ],
)
def test_a_bad_city_file_is_a_miss_and_rewritten(damage, tmp_path):
    data = _tiny_city(tmp_path / "d")
    threshold = pipeline.DEFAULT_CLUSTER_THRESHOLD
    load_city(data)
    path = _city_file(tmp_path / "d")
    with np.load(path) as z:
        arrays = {name: z[name] for name in z.files}
    head = json.loads(arrays["head"].tobytes())
    if damage == "truncated":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif damage == "another key":
        np.savez(path, **{**arrays, "key": np.array("0" * 64)})
    elif damage == "a head that is not JSON":
        np.savez(path, **{**arrays, "head": arrays["head"][:-1]})
    elif damage == "a label position out of range":
        # H's grid is 1 standard x 2 candidates
        np.savez(path, **{**arrays, "label_pos": np.array([2, 0], dtype=np.int64)})
    elif damage in _HEAD_DAMAGE:
        edited = json.dumps(_edit_head(head, damage)).encode()
        np.savez(path, **{**arrays, "head": np.frombuffer(edited, dtype=np.uint8)})
    elif damage == "another cluster threshold":
        threshold = 0.05
    else:
        locations = tmp_path / "d" / "locations.csv"
        locations.write_bytes(locations.read_bytes().replace(b"31.11,", b"31.19,"))
    with mock.patch.object(pipeline, "_city_arrays", wraps=pipeline._city_arrays) as build:
        got = load_city(data, cluster_threshold=threshold)
    assert build.call_count == 1
    want = reference_city(load_corpus(data), threshold)
    assert_same_city(got.districts, want)
    with _no_build():  # rewritten
        assert_same_city(load_city(data, cluster_threshold=threshold).districts, want)
    if damage == "another cluster threshold":
        assert list(want["H"].profiles) == ["alpha", "beta", "lakeviev", "lakeview"]
    if damage == "an edited input byte":
        assert want["H"].profiles["lakeviev"].points[0].tolist() == [31.19, 120.12]


def test_a_hit_logs_what_a_build_logs(tmp_path, caplog):
    data = _tiny_city(tmp_path / "d")
    path = str(_city_file(tmp_path / "d"))
    build = [
        ("INFO", "stage=build district=H names=3 standards=1 candidates=2 labels=2"),
        ("WARNING", "district=Z skipped reason=no-usable-names"),
    ]
    miss, hit, written, unwritten = (
        ("INFO", f"city={path} cache={c}") for c in ("miss", "hit", "written", "unwritten")
    )
    caplog.set_level(logging.INFO, logger="poialias")

    def city_lines():
        """The levels and messages logged since the last call; a city
        file's line is cut before its reason."""
        lines = [(r.levelname, r.getMessage()) for r in caplog.records]
        caplog.clear()
        return [(level, msg.split(" reason=")[0] if msg.startswith("city=") else msg) for level, msg in lines]

    load_city(data)
    assert city_lines() == [miss, *build, written]
    load_city(data)
    assert city_lines() == [*build, hit]
    os.unlink(path)
    with mock.patch.object(os, "replace", side_effect=OSError(28, "No space left on device")):
        load_city(data)
    assert city_lines() == [miss, *build, unwritten]


def test_an_input_rewritten_while_parsed_files_no_city(tmp_path):
    data = _tiny_city(tmp_path / "d")
    parse_labels_first = ingestion.parse_labels

    def parse_then_rewrite(path, fmt):
        out = parse_labels_first(path, fmt)
        (tmp_path / "d" / "locations.csv").write_text("user_id,lat,lon\nu9,1,2\n")
        return out

    with mock.patch.object(ingestion, "parse_labels", side_effect=parse_then_rewrite):
        load_city(data)
    assert not _city_file(tmp_path / "d").exists()
    assert load_city(data).districts["H"].bbox is None  # u9 wrote no name


def test_a_failing_build_writes_no_city_file(tmp_path):
    data = _tiny_city(tmp_path / "d", labels="H,lakeview,alpha,1\nH,lakeviev,alpha,0\n")
    with pytest.raises(ConflictingLabelError):
        load_city(data)
    assert not _city_file(tmp_path / "d").exists()
