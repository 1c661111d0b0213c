"""Every command's output bytes on three small seeded cities, pinned.

Each command runs in-process twice: cold, with no cache file beside its
inputs, and then again, when the first run's cache file can answer it.
Both runs must give the sha256 of every artifact and the manifest counts
that PINS holds. A change that moves an output on purpose updates PINS
and says which digests moved and why; a failure prints the table that the
code now gives.
"""

import hashlib
import json
import pprint

import pytest

from poialias.cli import main
from poialias.synth import SynthConfig, generate_city

#: the 12-POI city of test_synth's pinned digests, a wide variant of it
#: (the wide-city benchmark workload's settings) and a noisy copy, whose
#: inputs hold the benchmark's seeded 1 % of rejectable rows
CITIES = {
    "base": dict(pois_per_district=12),
    "wide": dict(
        pois_per_district=12, alias_fraction=1.0, aliases_per_poi=(1, 2), users_per_poi=(8, 12),
        points_per_user=(8, 12),
    ),
    "noisy": dict(pois_per_district=12),
}
SEED = 42

#: each command's arguments; {data} is the city's directory, {other} the
#: next city's, which `transfer` evaluates on
COMMANDS = {
    "ingest-check": ["ingest-check", "{data}"],
    "preprocess": ["preprocess", "{data}"],
    **{
        f"evaluate-{method}": ["evaluate", "{data}", "--method", method]
        for method in ("centroid", "loccent", "kl", "jaccard", "editdist")
    },
    "discover": ["discover", "{data}", "--method", "jaccard"],
    "crossval": ["crossval", "{data}", "--method", "kl"],
    "transfer": ["transfer", "--source", "{data}", "--target", "{other}", "--method", "jaccard"],
    "sweep": ["sweep", "{data}", "--method", "kl"],
}

PINS = {'base': {'ingest-check': {'counts': {'addresses': 490,
                                             'labels': 144,
                                             'orphan_labels': 0,
                                             'row_errors': 0,
                                             'users': 490},
                                  'ingest_report.json': '8027bc852190a83f2569a389437f2a43a83289bb889e5a05df0a5b76c7be743a'},
                 'preprocess': {'counts': {'canonical_names': 36, 'districts': 2, 'raw_names': 70},
                                'canonical_d00.csv': 'fbd9f349920f2bcdbd4989579221543fad7889cdf99d0d4d923c2f65bd504ae5',
                                'canonical_d01.csv': '2378a7d8df5aacd3393658e3eb84e18449ac16da7156eb8df130b149d04e2a67'},
                 'evaluate-centroid': {'counts': {'actual_positive': 12,
                                                  'pairs': 144,
                                                  'predicted_positive': 10,
                                                  'true_positive': 10},
                                       'report.json': 'd22b308ce0a339952612461da970d2d6308663cd8524769d349399bb612d413e'},
                 'evaluate-loccent': {'counts': {'actual_positive': 12,
                                                 'pairs': 144,
                                                 'predicted_positive': 12,
                                                 'true_positive': 12},
                                      'report.json': '059e116fa7d2a168a2661a42d951d3ad0e87659866df538ea3e149a82ca22efd'},
                 'evaluate-kl': {'counts': {'actual_positive': 12,
                                            'pairs': 144,
                                            'predicted_positive': 12,
                                            'true_positive': 12},
                                 'report.json': 'b4869ed4036ee10a0800315e122d7dc060308927977fd1f84d18f3d6775d7c09'},
                 'evaluate-jaccard': {'counts': {'actual_positive': 12,
                                                 'pairs': 144,
                                                 'predicted_positive': 12,
                                                 'true_positive': 12},
                                      'report.json': 'f9304d99522a32e288bb86a4ec1b635b4c126bb7d2abed8942cd39c7f61c1d19'},
                 'evaluate-editdist': {'counts': {'actual_positive': 12,
                                                  'pairs': 144,
                                                  'predicted_positive': 144,
                                                  'true_positive': 12},
                                       'report.json': 'e2dc2b0edae7b2a9daaf4a43cd79f0e9c411cfed588936fbdbb76b753adc2f4c'},
                 'discover': {'counts': {'districts': 2, 'links': 12, 'pairs': 144},
                              'aliases.csv': '1755899f796a84ed0b7f91464462503adacc8b5c5ac86a2239a4fdc00d6ef149'},
                 'crossval': {'counts': {'folds': 2},
                              'report.json': '8641cff13dbf2f574700020cf3be23712d75d8e9a8293ce214b238f456701758'},
                 'transfer': {'counts': {},
                              'report.json': 'adeed1b16289f32fdcdf0343c2a279dd828c49d94656d667f23f44998966dad9'},
                 'sweep': {'counts': {'grids': 5},
                           'report.json': '756dcc0a7b4ee66d9eb042236d02d7c3b27ffdf2a03d71830cd47ad466da49e5',
                           'sweep.csv': 'bcb3af5cc1f34fa3eb48996dc0b0a06d4168837cd25f70175e48901ce3ce2c84'}},
        'wide': {'ingest-check': {'counts': {'addresses': 241,
                                             'labels': 444,
                                             'orphan_labels': 0,
                                             'row_errors': 0,
                                             'users': 241},
                                  'ingest_report.json': '4beb7d0a0c11421e8021b26fdb12add7c245bcf82294469bc9a2bc4d1f6f9aaa'},
                 'preprocess': {'counts': {'canonical_names': 61, 'districts': 2, 'raw_names': 76},
                                'canonical_d00.csv': '08768c1cdd9998130d2a18b23012094133824155866a1364f058ac84662594fb',
                                'canonical_d01.csv': '22bf2010fb1dbe71745c11980c5df048aeb3d82c0a37291ed9e1a527dc1529f5'},
                 'evaluate-centroid': {'counts': {'actual_positive': 37,
                                                  'pairs': 444,
                                                  'predicted_positive': 41,
                                                  'true_positive': 33},
                                       'report.json': '3d18d4f7008b93e887dd626fcab7f74f0c183c7357a48e3574bf8cd7466df2b8'},
                 'evaluate-loccent': {'counts': {'actual_positive': 37,
                                                 'pairs': 444,
                                                 'predicted_positive': 37,
                                                 'true_positive': 37},
                                      'report.json': 'c3466d2a2c0beba03cd749d44bbf38791079d58c64e81e747f1b182b3c4ff599'},
                 'evaluate-kl': {'counts': {'actual_positive': 37,
                                            'pairs': 444,
                                            'predicted_positive': 37,
                                            'true_positive': 37},
                                 'report.json': 'e330ec843a80d41f55c975a9f5d2068f093f0cc0d17a108d1886f3947391b0c4'},
                 'evaluate-jaccard': {'counts': {'actual_positive': 37,
                                                 'pairs': 444,
                                                 'predicted_positive': 37,
                                                 'true_positive': 37},
                                      'report.json': 'f748f9f37c4024f7a8f60c9e7e744a70253517b3da962b5a9eff1943df93c18c'},
                 'evaluate-editdist': {'counts': {'actual_positive': 37,
                                                  'pairs': 444,
                                                  'predicted_positive': 444,
                                                  'true_positive': 37},
                                       'report.json': '6e6d3131bd13c1cfd40dd6b27087908691b7076709eaf020d2e31ed1076c4a56'},
                 'discover': {'counts': {'districts': 2, 'links': 37, 'pairs': 444},
                              'aliases.csv': '965a84d06f38aad6eedba8825d9be01358d22431b638deaa71b3310db4ccaae0'},
                 'crossval': {'counts': {'folds': 2},
                              'report.json': '25649a80750692727297425b97b28408c70a1d386dd4173119936130c6cda190'},
                 'transfer': {'counts': {},
                              'report.json': '5a4a0d2507bc4fe01439e4e5f9f41528dea6fd161bde44fc0fa4972023bcf755'},
                 'sweep': {'counts': {'grids': 5},
                           'report.json': 'bc6bb6fe57ff926e939ec8c8ca24d1d70284734fb0c1c5f3b35ff6d13758376f',
                           'sweep.csv': '6572e8487396183055c487aedf2431c20de3b019c4b017fe6ba0a9a9f321c742'}},
        'noisy': {'ingest-check': {'counts': {'addresses': 486,
                                              'labels': 144,
                                              'orphan_labels': 0,
                                              'row_errors': 198,
                                              'users': 490},
                                   'ingest_report.json': 'be0dc5f7397969eb323b0b7bc3f447c19725334b4c7664e3d3e06a07985f9535'},
                  'preprocess': {'counts': {'canonical_names': 36, 'districts': 2, 'raw_names': 70},
                                 'canonical_d00.csv': 'fbd9f349920f2bcdbd4989579221543fad7889cdf99d0d4d923c2f65bd504ae5',
                                 'canonical_d01.csv': '2378a7d8df5aacd3393658e3eb84e18449ac16da7156eb8df130b149d04e2a67'},
                  'evaluate-centroid': {'counts': {'actual_positive': 12,
                                                   'pairs': 144,
                                                   'predicted_positive': 10,
                                                   'true_positive': 10},
                                        'report.json': '2904da858b71994c8b1daeaa41bf0efd2f3e8bda816529906e46f8f033c5d7a4'},
                  'evaluate-loccent': {'counts': {'actual_positive': 12,
                                                  'pairs': 144,
                                                  'predicted_positive': 12,
                                                  'true_positive': 12},
                                       'report.json': '7595966494f7828a46a884a2939da11a12f2ed1a89e03d468d76c8cff8d64c7a'},
                  'evaluate-kl': {'counts': {'actual_positive': 12,
                                             'pairs': 144,
                                             'predicted_positive': 12,
                                             'true_positive': 12},
                                  'report.json': 'aa8377d2fce04092fdf099f44b075a271968ddeccecf4eb0d6561c7cac43452b'},
                  'evaluate-jaccard': {'counts': {'actual_positive': 12,
                                                  'pairs': 144,
                                                  'predicted_positive': 12,
                                                  'true_positive': 12},
                                       'report.json': 'a245f5c53fa58af9f4bc290c64a4b5cd02494a40f2fad68873f0df1d0bb0ac9d'},
                  'evaluate-editdist': {'counts': {'actual_positive': 12,
                                                   'pairs': 144,
                                                   'predicted_positive': 144,
                                                   'true_positive': 12},
                                        'report.json': 'e2dc2b0edae7b2a9daaf4a43cd79f0e9c411cfed588936fbdbb76b753adc2f4c'},
                  'discover': {'counts': {'districts': 2, 'links': 12, 'pairs': 144},
                               'aliases.csv': '1e310fcc27fe2d99674444b33c8a0af7ad935b097b28b14148c2e31013ac3c3d'},
                  'crossval': {'counts': {'folds': 2},
                               'report.json': '4b9a7acbbc1e4846a83cec8db67808aa6016f46f3724ffaa677f3d1f0743ef57'},
                  'transfer': {'counts': {},
                               'report.json': '96493d21fe3d417371c9a6c70d25364756e078c30473e5dd94e7301a05356eb4'},
                  'sweep': {'counts': {'grids': 5},
                            'report.json': '9a09f7e4d28afb253bae4b6437f857d1fc0b3d3a0a1a7cc207fee9b1e52e866b',
                            'sweep.csv': 'bcb3af5cc1f34fa3eb48996dc0b0a06d4168837cd25f70175e48901ce3ce2c84'}}}


@pytest.fixture(scope="module")
def cities(tmp_path_factory, bench_workloads):
    root = tmp_path_factory.mktemp("pinned")
    dirs = {}
    for name, config in CITIES.items():
        dirs[name] = root / name
        generate_city(SynthConfig(seed=SEED, **config), str(dirs[name]))
        if name == "noisy":
            bench_workloads.inject_noise(str(dirs[name]), SEED)
    return dirs


def _clear_caches(data):
    for path in data.iterdir():
        if path.name.startswith(".poialias-"):
            path.unlink()


def _outputs(out, data) -> dict:
    """The manifest's counts and the sha256 of every other artifact; the
    data directory's path in ingest_report.json is masked."""
    got = {"counts": json.loads((out / "run_manifest.json").read_text())["counts"]}
    for path in sorted(out.iterdir()):
        if path.name != "run_manifest.json":
            raw = path.read_bytes()
            if path.name == "ingest_report.json":
                raw = raw.replace(str(data).encode(), b"<data>")
            got[path.name] = hashlib.sha256(raw).hexdigest()
    return got


def test_every_artifact_matches_its_pinned_digest(cities, tmp_path, capsys):
    names = list(cities)
    table = {}
    for k, city in enumerate(names):
        data, other = cities[city], cities[names[(k + 1) % len(names)]]
        for command, argv in COMMANDS.items():
            argv = [a.replace("{data}", str(data)).replace("{other}", str(other)) for a in argv]
            runs = []
            for run in ("cold", "again"):
                if run == "cold":
                    _clear_caches(data)
                    _clear_caches(other)
                out = tmp_path / city / command / run
                assert main([*argv, "--out", str(out)]) == 0, (city, command, run)
                runs.append(_outputs(out, data))
            cold, again = runs
            table.setdefault(city, {})[command] = cold if again == cold else {"cold": cold, "again": again}
    capsys.readouterr()  # sweep prints its table
    # the built-city file is the one file kept beside the inputs
    assert {p.name for data in cities.values() for p in data.glob(".poialias-*")} == {".poialias-city.csv.npz"}
    assert table == PINS, "the table the code now gives:\n" + pprint.pformat(table, width=110, sort_dicts=False)
