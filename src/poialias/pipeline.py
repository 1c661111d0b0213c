"""District-level orchestration: corpus in, scored pairs out.

For each district this builds the canonical name map, the associated-user
index, and the mobility profiles, splits names into standards (those
appearing as standard names in the label registry) and candidates
(everything else), and scores the full standard-by-candidate grid.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .discovery import MetricConfig, ScoredPair, score_pairs
from .distribution import BoundingBox
from .errors import ConflictingLabelError
from .ingestion import Corpus, partition_by_district
from .preprocess import CanonicalMap, clean_text, cluster_near_duplicates
from .profile import MobilityProfile, build_all_profiles, build_associated_users

logger = logging.getLogger(__name__)

DEFAULT_CLUSTER_THRESHOLD = 0.2


@dataclass
class DistrictData:
    district: str
    canonical_map: CanonicalMap
    profiles: dict[str, MobilityProfile]
    standard_names: list[str]
    candidate_names: list[str]
    labels: dict = field(default_factory=dict)  # (std, cand) canonical -> bool
    bbox: BoundingBox | None = None

    def standard_profiles(self) -> list[MobilityProfile]:
        return [self.profiles[n] for n in self.standard_names]

    def candidate_profiles(self) -> list[MobilityProfile]:
        return [self.profiles[n] for n in self.candidate_names]


@dataclass
class CityData:
    districts: dict[str, DistrictData]

    def labeled_districts(self) -> list[str]:
        return sorted(d for d, dd in self.districts.items() if dd.labels)


def build_district_data(
    district: str,
    addresses,
    locations,
    strings: list[str],
    label_ids: np.ndarray,
    is_alias: np.ndarray,
    cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD,
) -> DistrictData:
    """Assemble one district's canonical map, profiles, and name split.

    The district's labels are columnar, as `Corpus` holds them: rows of
    `label_ids` (district, standard, candidate indices into `strings`) in
    file order, and their `is_alias` values. The standard registry is taken
    from them: a name is a standard iff some label lists it as one; every
    other canonical name becomes a candidate. A district with no usable
    address names gets an empty canonical map and no profiles; its labels
    stay, so its positives count against recall. Raw labels that resolve to
    one canonical pair merge when they agree and raise
    ConflictingLabelError when they do not.
    """
    freq: dict[str, int] = {}
    for rec in addresses:
        cleaned = clean_text(rec.poi_name)
        if cleaned:
            freq[cleaned] = freq.get(cleaned, 0) + 1
    canonical = CanonicalMap()
    if freq:
        canonical = cluster_near_duplicates(sorted(freq.items()), cluster_threshold)
    index = build_associated_users(addresses, canonical)
    profiles = build_all_profiles(index, locations)
    label_map, registry = _label_map(district, canonical, strings, label_ids, is_alias)

    standard_names = sorted(n for n in profiles if n in registry)
    candidate_names = sorted(n for n in profiles if n not in registry)

    pts = [p.points for p in profiles.values() if p.point_count]
    bbox = BoundingBox.from_points(np.concatenate(pts, axis=0)) if pts else None

    return DistrictData(
        district=district,
        canonical_map=canonical,
        profiles=profiles,
        standard_names=standard_names,
        candidate_names=candidate_names,
        labels=label_map,
        bbox=bbox,
    )


def _label_map(district, canonical: CanonicalMap, strings, label_ids, is_alias) -> tuple[dict, set]:
    """The canonical (std, cand) -> is_alias map, in order of first
    occurrence, and the set of canonical standards.

    Each distinct raw name is cleaned and resolved once; the labels then
    group by their canonical pair's ids. A group whose values disagree
    raises for its first label and the earliest label that differs from it.
    """
    if not len(label_ids):
        return {}, set()
    named = np.zeros(len(strings), dtype=bool)
    named[label_ids[:, 1:]] = True
    raw = np.flatnonzero(named)
    ids: dict[str, int] = {}  # canonical name -> its id here
    canonical_id = np.zeros(len(strings), dtype=np.int32)  # a raw name's index -> its canonical id
    canonical_id[raw] = [
        ids.setdefault(canonical.resolve(clean_text(strings[i])), len(ids)) for i in raw.tolist()
    ]
    names = list(ids)
    pairs = canonical_id[label_ids[:, 1:]]  # each label's canonical (std, cand) ids
    key = pairs[:, 0].astype(np.int64) * len(names) + pairs[:, 1]
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    differs = is_alias != is_alias[first[group]]
    if differs.any():
        later = int(np.argmax(differs))
        prev = int(first[group[later]])
        (p_std, p_cand), (l_std, l_cand) = (
            [strings[i] for i in row] for row in label_ids[[prev, later], 1:].tolist()
        )
        std, cand = (names[i] for i in pairs[later].tolist())
        raise ConflictingLabelError(
            f"district {district!r}: labels ({p_std!r}, {p_cand!r}) and ({l_std!r}, {l_cand!r}) "
            f"both resolve to ({std!r}, {cand!r}) with different is_alias values"
        )
    firsts = np.sort(first)
    canon = np.array(names, dtype=object)
    keys = zip(canon[pairs[firsts, 0]].tolist(), canon[pairs[firsts, 1]].tolist())
    return dict(zip(keys, is_alias[firsts].tolist())), set(canon[pairs[:, 0]].tolist())


def build_city_data(
    corpus: Corpus, cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD
) -> CityData:
    """District-partitioned pipeline state for one corpus: one DistrictData
    for every district with usable address names or labels."""
    by_district = partition_by_district(corpus.addresses)
    # each district's label rows, in file order
    col = corpus.label_ids[:, 0]
    order = np.argsort(col, kind="stable")
    district_ids, starts = np.unique(col[order], return_index=True)
    label_rows = {
        corpus.strings[i]: rows for i, rows in zip(district_ids.tolist(), np.split(order, starts[1:]))
    }

    districts: dict[str, DistrictData] = {}
    for district in sorted(by_district.keys() | label_rows.keys()):
        rows = label_rows.get(district, order[:0])
        dd = build_district_data(
            district,
            by_district.get(district, []),
            corpus.locations,
            corpus.strings,
            corpus.label_ids[rows],
            corpus.is_alias[rows],
            cluster_threshold,
        )
        if not (dd.canonical_map.mapping or dd.labels):
            logger.warning("district=%s skipped reason=no-usable-names", district)
            continue
        districts[district] = dd
        logger.info(
            "stage=build district=%s names=%d standards=%d candidates=%d labels=%d",
            district,
            len(dd.profiles),
            len(dd.standard_names),
            len(dd.candidate_names),
            len(dd.labels),
        )
    return CityData(districts=districts)


def score_city(
    city: CityData, config: MetricConfig, workers: int = 1
) -> dict[str, list[ScoredPair]]:
    """Exhaustive N x M scored pairs per district; districts may score in
    parallel."""

    def score(d: str) -> list[ScoredPair]:
        dd = city.districts[d]
        return score_pairs(dd.standard_profiles(), dd.candidate_profiles(), config, bbox=dd.bbox)

    names = sorted(city.districts)
    if workers > 1 and len(names) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return dict(zip(names, pool.map(score, names)))
    return {d: score(d) for d in names}
