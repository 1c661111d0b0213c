"""Synthetic city generator: determinism, planted truth, degradation knobs."""

import csv
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poialias import evaluation
from poialias.cli import main
from poialias.discovery import MetricConfig
from poialias.errors import InvalidConfigError
from poialias.ingestion import load_corpus
from poialias.pipeline import build_city_data, score_city
from poialias.preprocess import limited_edit_distance
from poialias.synth import (
    _ALIAS_SYLLABLES,
    _NAME_MARGIN,
    _STD_SYLLABLES,
    SynthConfig,
    _NameIndex,
    generate_city,
)

SMALL = dict(
    n_districts=2,
    pois_per_district=25,
    users_per_poi=(8, 12),
    points_per_user=(12, 20),
)


def _files(d):
    return ["addresses.csv", "locations.csv", "labels.csv", "truth_meta.json"]


def test_same_seed_is_byte_identical(tmp_path):
    cfg = SynthConfig(seed=42, **SMALL)
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_city(cfg, str(a))
    generate_city(cfg, str(b))
    for name in _files(a):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# sha256 of every generated file for a small two-district city. A change
# to the name generator (or to the edit distance `_clear_of` uses to keep
# names apart) that moves a single byte fails here.
PINNED_DIGESTS = {
    42: {
        "addresses.csv": "3eadf4fbf3d4d95c8dd948e697e86418412c160850df1d5f9bfb45dccb1f57b6",
        "locations.csv": "66119116609998f93a0ac61f56e167b9bf601f64a699e61bcf6ce61a729b62d2",
        "labels.csv": "f7d262916cef0b70e09f5246156e8b459280f2099718e7eec8c4e22c42c54fa6",
        "truth_meta.json": "1ed7fdc2aa3cc58654955e80cc020aad180f03268ca69f0ca76b072dc99299ea",
    },
    43: {
        "addresses.csv": "21cb0070b56bc3d3e173a6decea4de0cf5f6b3502f96bbb8616bccddc97ea776",
        "locations.csv": "dfb583764762a02da283394151e37e5a6580cc13c52bd080f0d8919deee22dff",
        "labels.csv": "458e57f79bc710038ddeb633d0c53ce08f8f95ca17deff48768aa989f9d07d35",
        "truth_meta.json": "d28ba708534870e82a25b4315426182c59550e20700f2d83e90e0e3bfe4d6663",
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED_DIGESTS))
def test_generated_files_match_pinned_digests(seed, tmp_path):
    generate_city(SynthConfig(seed=seed, pois_per_district=12), str(tmp_path))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in _files(tmp_path)
    }
    assert digests == PINNED_DIGESTS[seed]


def _load_bench_workloads():
    """bench/workloads.py, which holds the benchmark's workloads and pins."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["default-city", "wide-city"])
def test_full_size_cities_match_the_benchmark_pins(workload, tmp_path):
    # the 12-POI pins above never reach the saturated regime where most
    # drawn names are rejected; the benchmark's full-size cities do
    wl = _load_bench_workloads()
    argv = wl.WORKLOADS[workload].synth_argv(wl.REFERENCE_SEED, smoke=False)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert wl.digest(str(tmp_path)) == wl.load_pins(workload)["digests"]


def _clear_of_oracle(name: str, taken: list) -> bool:
    """The plain scan: an exact check against every accepted name."""
    for other in taken:
        lm = max(len(name), len(other))
        k = int(_NAME_MARGIN * lm)
        if limited_edit_distance(name, other, k) <= k:
            return False
    return True


# both syllable sets, CJK, and astral-plane characters; _ABSENT never occurs
# in an accepted name, only in the names checked against them
_ACCEPTED_ALPHABET = "bcdfgrstae" + "klmnpvwziou" + "东西南北中山路" + "\U00020000\U0001f600\U0001d538"
_ABSENT = "xyé丁\U0001f680"
_NAMES = st.text(alphabet=_ACCEPTED_ALPHABET, max_size=12)


@st.composite
def _near(draw, accepted):
    """A name one or two edits from an accepted one, possibly with absent characters."""
    name = list(draw(st.sampled_from(accepted)))
    for _ in range(draw(st.integers(1, 2))):
        ch = draw(st.sampled_from(_ACCEPTED_ALPHABET + _ABSENT))
        pos = draw(st.integers(0, len(name)))
        op = draw(st.integers(0, 2))
        if op == 0 and pos < len(name):
            name[pos] = ch
        elif op == 1:
            name.insert(pos, ch)
        elif name:
            del name[min(pos, len(name) - 1)]
    return "".join(name)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), accepted=st.lists(_NAMES, max_size=40))
def test_indexed_check_decides_like_the_plain_scan(data, accepted):
    index = _NameIndex()
    for name in accepted:
        index.add(name)
    queries = data.draw(
        st.lists(
            st.one_of(
                st.text(alphabet=_ACCEPTED_ALPHABET + _ABSENT, max_size=12),
                *([_near(accepted), st.sampled_from(accepted)] if accepted else []),
            ),
            min_size=1,
            max_size=8,
        )
    )
    for name in queries:
        assert index.clear_of(name) == _clear_of_oracle(name, accepted), name


def test_indexed_check_on_drawn_syllable_names():
    # the generator's own regime: many 8-12 letter names from two disjoint
    # syllable sets, past the index's first growth steps
    rng = np.random.default_rng(3)
    index, accepted = _NameIndex(), []
    for step in range(1500):
        syllables = _STD_SYLLABLES if step % 3 else _ALIAS_SYLLABLES
        name = "".join(syllables[int(i)] for i in rng.integers(0, len(syllables), int(rng.integers(4, 7))))
        clear = _clear_of_oracle(name, accepted)
        assert index.clear_of(name) == clear, (step, name)
        if clear:
            index.add(name)
            accepted.append(name)
    assert len(accepted) > 100


def test_different_seeds_differ(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_city(SynthConfig(seed=1, **SMALL), str(a))
    generate_city(SynthConfig(seed=2, **SMALL), str(b))
    assert (a / "addresses.csv").read_bytes() != (b / "addresses.csv").read_bytes()


def test_zero_alias_fraction_degenerate(tmp_path):
    cfg = SynthConfig(seed=42, n_districts=1, pois_per_district=10, alias_fraction=0.0)
    summary = generate_city(cfg, str(tmp_path))
    assert summary["n_positive_labels"] == 0
    assert summary["n_labels"] == 0  # no candidates at all
    rows = list(csv.DictReader(open(tmp_path / "labels.csv")))
    assert rows == []


def test_planted_counts_match_label_file(tmp_path):
    # default desk configuration; the generator's own bookkeeping is the
    # oracle, cross-checked by a recount from the emitted files
    cfg = SynthConfig(seed=9)
    summary = generate_city(cfg, str(tmp_path))
    meta = json.loads((tmp_path / "truth_meta.json").read_text())

    planted = sum(len(p["aliases"]) for d in meta["districts"] for p in d["pois"])
    rows = list(csv.DictReader(open(tmp_path / "labels.csv")))
    positives = sum(1 for r in rows if r["is_alias"] == "1")
    assert planted == positives == summary["n_positive_labels"]


def test_labels_are_exhaustive_per_district(tmp_path):
    cfg = SynthConfig(seed=11, **SMALL)
    generate_city(cfg, str(tmp_path))
    meta = json.loads((tmp_path / "truth_meta.json").read_text())
    rows = list(csv.DictReader(open(tmp_path / "labels.csv")))
    for dmeta in meta["districts"]:
        district = dmeta["district"]
        stds = {p["standard_name"] for p in dmeta["pois"]}
        aliases = {a for p in dmeta["pois"] for a in p["aliases"]}
        dist_rows = [r for r in rows if r["district"] == district]
        assert len(dist_rows) == len(stds) * len(aliases)
        seen = {(r["standard_name"], r["candidate_name"]) for r in dist_rows}
        assert seen == {(s, a) for s in stds for a in aliases}


def test_alias_names_in_addresses_appear_in_labels(tmp_path):
    cfg = SynthConfig(seed=13, **SMALL)
    generate_city(cfg, str(tmp_path))
    meta = json.loads((tmp_path / "truth_meta.json").read_text())
    alias_names = {a for d in meta["districts"] for p in d["pois"] for a in p["aliases"]}
    addr_rows = list(csv.DictReader(open(tmp_path / "addresses.csv")))
    label_rows = list(csv.DictReader(open(tmp_path / "labels.csv")))
    label_candidates = {r["candidate_name"] for r in label_rows}
    written_names = {r["poi_name"] for r in addr_rows}
    for alias in alias_names & written_names:
        assert alias in label_candidates


def test_emitted_files_parse_cleanly(tmp_path):
    cfg = SynthConfig(seed=17, **SMALL)
    summary = generate_city(cfg, str(tmp_path))
    corpus = load_corpus(str(tmp_path))
    assert len(corpus.addresses) == summary["n_addresses"]
    assert len(corpus.locations) == summary["n_users"]
    assert len(corpus.labels) == summary["n_labels"]
    assert sum(r.n_errors for r in corpus.reports.values()) == 0


def test_invalid_config_rejected():
    with pytest.raises(InvalidConfigError):
        SynthConfig(alias_fraction=1.5)
    with pytest.raises(InvalidConfigError):
        SynthConfig(users_per_poi=(10, 5))
    with pytest.raises(InvalidConfigError):
        SynthConfig(min_separation_m=9000.0, district_extent_m=1000.0)


def _calibrated_f1(city, method):
    scores = score_city(city, MetricConfig(method=method, threshold=0.0))
    cal = evaluation.calibrate_on_districts(city, scores, sorted(scores))
    return evaluation.evaluate_districts(city, scores, cal.theta).f1


def test_no_away_points_forces_perfect_centroid(tmp_path):
    cfg = SynthConfig(seed=19, away_fraction=0.0, home_scatter_m=40.0, **SMALL)
    generate_city(cfg, str(tmp_path))
    city = build_city_data(load_corpus(str(tmp_path)))
    assert _calibrated_f1(city, "centroid") == 1.0


def test_away_fraction_degrades_centroid_faster_than_loccent(tmp_path):
    # expectation over seeds: more away mass hurts the overall centroid
    # while the local-region estimate stays pinned to the home cluster
    drops = {"centroid": [], "loc_cent": []}
    for seed in range(10):
        f1 = {}
        for af in (0.1, 0.35):
            out = tmp_path / f"s{seed}_{af}"
            generate_city(SynthConfig(seed=800 + seed, away_fraction=af, **SMALL), str(out))
            city = build_city_data(load_corpus(str(out)))
            f1[af] = {m: _calibrated_f1(city, m) for m in ("centroid", "loc_cent")}
        for m in drops:
            drops[m].append(f1[0.1][m] - f1[0.35][m])
    mean_drop_centroid = sum(drops["centroid"]) / 10
    mean_drop_loccent = sum(drops["loc_cent"]) / 10
    assert mean_drop_centroid > mean_drop_loccent
