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
    labels,
    cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD,
) -> DistrictData:
    """Assemble one district's canonical map, profiles, and name split.

    The standard registry is taken from the district's labels: a name is a
    standard iff some label lists it as one; every other canonical name
    becomes a candidate. A district with no usable address names gets an
    empty canonical map and no profiles; its labels stay, so its positives
    count against recall. Raw labels that resolve to one canonical pair
    merge when they agree and raise ConflictingLabelError when they do not.
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

    first: dict = {}  # canonical (std, cand) -> first raw label resolving to it
    registry: set[str] = set()
    for lb in labels:
        std = canonical.resolve(clean_text(lb.standard_name))
        cand = canonical.resolve(clean_text(lb.candidate_name))
        registry.add(std)
        prev = first.setdefault((std, cand), lb)
        if prev.is_alias != lb.is_alias:
            raise ConflictingLabelError(
                f"district {district!r}: labels ({prev.standard_name!r}, "
                f"{prev.candidate_name!r}) and ({lb.standard_name!r}, {lb.candidate_name!r}) "
                f"both resolve to ({std!r}, {cand!r}) with different is_alias values"
            )
    label_map = {key: lb.is_alias for key, lb in first.items()}

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


def build_city_data(
    corpus: Corpus, cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD
) -> CityData:
    """District-partitioned pipeline state for one corpus: one DistrictData
    for every district with usable address names or labels."""
    by_district = partition_by_district(corpus.addresses)
    labels_by_district: dict[str, list] = {}
    for lb in corpus.labels:
        labels_by_district.setdefault(lb.district, []).append(lb)

    districts: dict[str, DistrictData] = {}
    for district in sorted(by_district.keys() | labels_by_district.keys()):
        dd = build_district_data(
            district,
            by_district.get(district, []),
            corpus.locations,
            labels_by_district.get(district, []),
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
