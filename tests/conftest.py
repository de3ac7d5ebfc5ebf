from dataclasses import fields
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def golden_dir() -> Path:
    return REPO_ROOT / "tests" / "data"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return REPO_ROOT / "scenarios"


def batch_bytes(tracks) -> tuple:
    """Every array of a ``tracker.Tracks`` batch as its dtype, shape and
    bytes, in field order: equal exactly when the batches are equal bit
    for bit, row order included."""
    return tuple((a.dtype.str, a.shape, a.tobytes())
                 for a in (getattr(tracks, f.name) for f in fields(tracks)))


def state_bytes(state: tuple) -> tuple:
    """A tracker state as ``Tracker._capture`` returns it, comparable with ==."""
    tracks, *rest = state
    return (*rest, batch_bytes(tracks))


def tracker_state(tracker) -> tuple:
    """A tracker's whole state: its track batch bit for bit, next id,
    clock and singular count."""
    return state_bytes(tracker._capture())
