"""A city where the five methods separate.

On the default synthetic city three methods score F1 1.000, so a change
that moves their scores without crossing a label leaves every other check
green. Sparser users, more away points, closer POIs and a wider home
scatter (about 15k location rows a city) leave room between the methods:
each one's calibrated evaluate is pinned here, with the ordering the
paper's comparison predicts.
"""

import pytest

from poialias import evaluation
from poialias.cli import CLI_METHODS
from poialias.discovery import MetricConfig
from poialias.ingestion import load_corpus
from poialias.pipeline import build_city_data, score_city
from poialias.synth import SynthConfig, generate_city

SPARSE_CITY = dict(
    users_per_poi=(4, 8),
    points_per_user=(8, 16),
    away_fraction=0.3,
    min_separation_m=80.0,
    home_scatter_m=120.0,
)

# (true_positive, predicted_positive, actual_positive, n_insufficient) of a
# calibrated evaluate at the defaults; F1 in the comment
PINS = {
    42: {
        "loccent": (79, 80, 93, 0),  # 0.913
        "kl": (81, 111, 93, 0),  # 0.794
        "jaccard": (77, 102, 93, 0),  # 0.790
        "centroid": (37, 353, 93, 0),  # 0.166
        "editdist": (86, 9062, 93, 0),  # 0.019
    },
    43: {
        "loccent": (81, 83, 86, 0),  # 0.959
        "kl": (74, 85, 86, 0),  # 0.865
        "jaccard": (77, 87, 86, 0),  # 0.890
        "centroid": (34, 249, 86, 0),  # 0.203
        "editdist": (82, 8359, 86, 0),  # 0.019
    },
    44: {
        "loccent": (83, 87, 90, 0),  # 0.938
        "kl": (72, 92, 90, 0),  # 0.791
        "jaccard": (83, 115, 90, 0),  # 0.810
        "centroid": (38, 416, 90, 0),  # 0.150
        "editdist": (87, 8900, 90, 0),  # 0.019
    },
}


@pytest.mark.parametrize("seed", sorted(PINS))
def test_methods_separate_on_a_sparse_city(seed, tmp_path):
    generate_city(SynthConfig(seed=seed, **SPARSE_CITY), str(tmp_path))
    city = build_city_data(load_corpus(str(tmp_path)))
    counts, f1 = {}, {}
    for method in PINS[seed]:
        scores = score_city(city, MetricConfig(method=CLI_METHODS[method], threshold=0.0))
        cal = evaluation.calibrate_on_districts(city, scores, sorted(scores))
        report = evaluation.evaluate_districts(city, scores, cal.theta, method=method)
        counts[method] = (
            report.true_positive,
            report.predicted_positive,
            report.actual_positive,
            report.n_insufficient,
        )
        f1[method] = report.f1
    assert counts == PINS[seed]
    # local-region centroid > both grid distributions > global centroid > text
    assert f1["loccent"] > max(f1["kl"], f1["jaccard"])
    assert min(f1["kl"], f1["jaccard"]) > f1["centroid"] > f1["editdist"]
