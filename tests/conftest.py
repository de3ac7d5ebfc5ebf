from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def golden_dir() -> Path:
    return REPO_ROOT / "tests" / "data"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return REPO_ROOT / "scenarios"
