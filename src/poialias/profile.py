"""Associated-user index and mobility profiles.

A POI name's associated users are the users who wrote that name in some
delivery address; its mobility profile is the multiset union of those
users' GPS points. Repeated coordinates are kept: revisit density is
signal for the downstream distribution comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError
from .ingestion import AddressRecord
from .preprocess import CanonicalMap, clean_text


@dataclass
class MobilityProfile:
    """GPS point multiset of one canonical POI name's associated users."""

    name: str
    points: np.ndarray  # (n, 2) [lat, lon]; duplicates preserved
    user_count: int
    point_count: int


def build_associated_users(
    addresses: list[AddressRecord], canonical: CanonicalMap
) -> dict[str, set[str]]:
    """Map each canonical POI name to the set of users who wrote it.

    Raw names are cleaned and resolved through the canonical map (unseen
    names resolve to themselves); records whose name cleans to the empty
    string are excluded.
    """
    index: dict[str, set[str]] = {}
    for rec in addresses:
        name = canonical.resolve(clean_text(rec.poi_name))
        if not name:
            continue
        index.setdefault(name, set()).add(rec.user_id)
    return index


def build_mobility_profile(
    name: str, index: dict[str, set[str]], locations: dict[str, np.ndarray]
) -> MobilityProfile:
    """Concatenate the location points of `name`'s associated users.

    Users without location data contribute no points but still count in
    user_count; an all-empty profile is legal and carries point_count 0.
    Users are visited in sorted order so the array layout is deterministic
    (the multiset itself is order-free).
    """
    if name not in index:
        raise EmptyInputError(f"name {name!r} not present in the associated-user index")
    users = sorted(index[name])
    chunks = [locations[u] for u in users if u in locations and len(locations[u])]
    if chunks:
        points = np.concatenate(chunks, axis=0)
    else:
        points = np.empty((0, 2), dtype=float)
    return MobilityProfile(
        name=name, points=points, user_count=len(users), point_count=points.shape[0]
    )


def build_all_profiles(
    index: dict[str, set[str]], locations: dict[str, np.ndarray]
) -> dict[str, MobilityProfile]:
    """Profiles for every name in the index, keyed by canonical name."""
    return {
        name: build_mobility_profile(name, index, locations) for name in sorted(index)
    }
