import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

import pcodelay as pc


SRC = Path(__file__).resolve().parents[1] / "src"

# Hypothesis keeps its example database and constants cache under
# ./.hypothesis unless told otherwise; a test run keeps them in a temporary
# directory instead, so it leaves nothing in the checkout.
HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    home = config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="pcodelay-hypothesis-")
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = home


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture
def src_on_pythonpath(monkeypatch):
    """Prepend this checkout's src to PYTHONPATH for child interpreters.

    pyproject's pythonpath setting reaches only the test process; a test
    that starts `python -m pcodelay` needs this so the child imports the
    same copy of the package.
    """
    rest = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), rest])))


@pytest.fixture(scope="session")
def std_curve() -> pc.CurveSpec:
    return pc.CurveSpec(i=1.05)


@pytest.fixture(scope="session")
def headline_coupling() -> pc.CouplingParams:
    return pc.CouplingParams(n=100, epsilon=0.001, tau=0.1)


@pytest.fixture(scope="session")
def headline_params(std_curve, headline_coupling) -> pc.ModelParams:
    return pc.ModelParams(curve=std_curve, coupling=headline_coupling)


@pytest.fixture(scope="session")
def pair_params(std_curve) -> pc.ModelParams:
    return pc.ModelParams(
        curve=std_curve, coupling=pc.CouplingParams(n=2, epsilon=0.001, tau=0.1)
    )


def base_config(**overrides) -> dict:
    """A valid config dict; override or delete (value None) keys per test."""
    cfg = {
        "n": 100,
        "epsilon": 0.001,
        "tau": 0.1,
        "curve": {"family": "ms_exponential", "i": 1.05},
        "seed": 7,
        "init": {"mode": "uniform", "low": 0.0, "high": 1.0},
        "horizon": 100.0,
    }
    for key, value in overrides.items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return cfg


@pytest.fixture
def write_config(tmp_path):
    """Write a config dict to a file, returning its path as str."""
    counter = [0]

    def _write(cfg: dict) -> str:
        counter[0] += 1
        path = tmp_path / f"config_{counter[0]}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    return _write
