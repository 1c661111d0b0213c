"""Shared fixtures: a small synthetic city reused across test modules, and
the benchmark's workloads module."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from poialias.ingestion import load_corpus
from poialias.pipeline import build_city_data
from poialias.synth import SynthConfig, generate_city

SMALL_CONFIG = SynthConfig(
    seed=5,
    n_districts=2,
    pois_per_district=30,
    users_per_poi=(10, 14),
    points_per_user=(16, 24),
)


@pytest.fixture(scope="session")
def small_city(tmp_path_factory):
    out = tmp_path_factory.mktemp("smallcity")
    generate_city(SMALL_CONFIG, str(out))
    corpus = load_corpus(str(out))
    city = build_city_data(corpus)
    return SimpleNamespace(dir=str(out), corpus=corpus, city=city, config=SMALL_CONFIG)


@pytest.fixture(scope="session")
def bench_workloads():
    """bench/workloads.py, which holds the benchmark's workloads, pins and
    noise injection, loaded without changing it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module
