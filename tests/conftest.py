import copy
import math
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, strategies as st

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


# What a mutation swaps a value for: another JSON type (int, float, numeric
# string, bool, null, list and object, an int past the float range among
# them), or a non-finite number.
SWAPS = (0, 3, -1, 10**400, 2.0, 0.5, -7.5, "2", "0.5", True, False, None,
         [], [1.0, 2.0, 3.0], {}, {"kind": "cv"}, math.nan, math.inf, -math.inf)
# One mutation of a JSON document, as ``mutate`` applies it.
MUTATIONS = st.fixed_dictionaries({
    "how": st.sampled_from(("swap", "fraction", "drop", "add", "short", "long", "bool")),
    "at": st.integers(0, 2**16), "pick": st.integers(0, 2**8),
    "value": st.sampled_from(SWAPS)})


def json_paths(node, path=()):
    """The path of every value inside a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


def json_node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_vector(node) -> bool:
    return type(node) is list and len(node) in (3, 4) and \
        all(type(x) in (int, float) for x in node)


def mutate(doc, how, at, pick, value, keys=()):
    """A copy of the JSON document ``doc`` with one mutation ``how`` at
    the ``at``-th (modulo their count) of the places it applies to:
    ``swap`` a value for ``value``, make an int ``fraction``al, ``drop`` a
    key or an entry, ``add`` to an object a key (the ``pick``-th of
    ``keys``, ``doc``'s own keys and an unknown one) holding ``value``, or
    make a vector of 3 or 4 numbers ``short``, ``long`` or hold a ``bool``
    (at its ``pick``-th place).  Hypothesis discards a mutation with no
    place."""
    doc = copy.deepcopy(doc)
    paths = list(json_paths(doc))
    vectors = [p for p in paths if _is_vector(json_node(doc, p))]
    places = {"fraction": [p for p in paths if type(json_node(doc, p)) is int],
              "add": [p for p in [(), *paths] if type(json_node(doc, p)) is dict],
              "short": vectors, "long": vectors, "bool": vectors}.get(how, paths)
    assume(places)
    path = places[at % len(places)]
    if how == "add":
        names = sorted({*keys, *(p[-1] for p in paths if type(p[-1]) is str), "bogus"})
        json_node(doc, path)[names[pick % len(names)]] = copy.deepcopy(value)
        return doc
    parent, key = json_node(doc, path[:-1]), path[-1]
    if how == "swap":
        parent[key] = copy.deepcopy(value)
    elif how == "fraction":
        parent[key] += 0.5
    elif how == "drop":
        del parent[key]
    elif how == "short":
        parent[key].pop()
    elif how == "long":
        parent[key].append(1.0)
    else:
        parent[key][pick % len(parent[key])] = pick % 2 == 0
    return doc
