"""The inputs of a test run: one synthetic year written once a session, a
copy of it for a test that removes or rewrites an input, and the config of a
run over it, as a :class:`RunConfig` or as a config file; and a demand series
of flat per-interval counts."""

import hashlib
import shutil
from datetime import date
from pathlib import Path

import numpy as np
import pytest
import yaml

from bikecast import synthetic
from bikecast.config import RunConfig
from bikecast.ingest import DemandSeries

STATIONS = (
    synthetic.StationSpec("7", 20, "residential"),
    synthetic.StationSpec("8", 24, "business"),
)


def _digests(paths: dict[str, str]) -> dict[str, str]:
    return {key: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for key, path in paths.items()}


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """The paths of the trips, weather and stations files of one synthetic
    year of :data:`STATIONS`, shared by every test. A test that changes one
    fails the session at teardown; :func:`corpus_copy` is the copy to change."""
    paths = synthetic.write_corpus(str(tmp_path_factory.mktemp("corpus")), seed=11,
                                   stations=STATIONS, base_rate=2.0)
    digests = _digests(paths)
    yield paths
    assert _digests(paths) == digests, "a test changed the shared corpus"


@pytest.fixture
def corpus_copy(corpus, tmp_path):
    """The paths of a copy of :func:`corpus` in ``tmp_path / "data"``."""
    data = tmp_path / "data"
    data.mkdir()
    return {key: shutil.copy(path, data) for key, path in corpus.items()}


def tree(root) -> dict[str, bytes]:
    """The bytes of every file under ``root``, by path relative to it."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def _fields(paths, out, extra) -> dict:
    return {
        "trips_path": paths["trips"], "weather_path": paths["weather"],
        "stations_path": paths["stations"], "out_dir": str(out), "seed": 5,
        "start_date": "2018-01-01", "end_date": "2018-12-31", "stations": ["7", "8"],
        "models": ["ha"], "bias_delta_max": 4.0, "bias_delta_step": 2.0, **extra,
    }


def run_config(paths, out, **extra) -> RunConfig:
    """The config of a run over the corpus at ``paths`` into ``out``: both
    stations, the ha model and a bias grid of 0, 2 and 4, with the fields of
    ``extra`` set over these."""
    return RunConfig(**_fields(paths, out, extra))


class Spelled(str):
    """A YAML integer written just as spelled, such as ``010`` or ``0x10``."""

    def __repr__(self):
        return str(self)


class _Dumper(yaml.SafeDumper):
    pass


_Dumper.add_representer(
    Spelled, lambda dumper, text: dumper.represent_scalar("tag:yaml.org,2002:int", text))


def write_config(path, paths, out, **extra) -> str:
    """Write the config of :func:`run_config` to the YAML file ``path``."""
    with open(path, "w") as fh:
        yaml.dump(_fields(paths, out, extra), fh, Dumper=_Dumper)
    return str(path)


def demand_series(pickups, returns, interval_minutes: int = 60,
                  first_day: date = date(2018, 6, 1), station: str = "A",
                  covariates=None) -> DemandSeries:
    """The series of ``station`` from ``first_day`` whose per-interval counts,
    in time order and tiling whole days, are ``pickups`` and ``returns``."""
    counts = np.stack([pickups, returns], axis=-1).reshape(-1, 1440 // interval_minutes, 2)
    return DemandSeries(station, interval_minutes, first_day, counts, covariates)
