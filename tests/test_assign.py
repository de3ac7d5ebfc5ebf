"""The in-repo assignment solver against scipy's ``linear_sum_assignment``.

``fusion.assign`` runs the algorithm of scipy's solver on the finite
cells only.  Its pairs must equal scipy's on the dense masked matrix
whenever the optimal set of finite pairs is unique (continuous random
costs); on tie-heavy integer costs both must reach the same number of
pairs and the same total.  ``metrics.ospa`` must equal, bit for bit, the
dense computation it replaced.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from fusionsim.fusion import assign
from fusionsim.metrics import distances, ospa

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(0, 70)
densities = st.sampled_from([0.0, 0.2, 0.5, 0.8, 0.9, 0.98])


def scipy_assign(cost):
    """The masked dense problem the solver replaces, solved by scipy."""
    finite = np.isfinite(cost)
    if not finite.any():
        return []
    big = max(1.0, float(np.abs(cost[finite]).max())) * (min(cost.shape) + 1)
    rows, cols = linear_sum_assignment(np.where(finite, cost, big))
    return [(int(i), int(j)) for i, j in zip(rows, cols) if finite[i, j]]


def random_cost(seed, n, m, density, blank, integers):
    rng = np.random.default_rng(seed)
    cost = rng.integers(0, 4, (n, m)).astype(float) if integers else rng.uniform(0.0, 10.0, (n, m))
    cost[rng.random((n, m)) < density] = np.inf
    if blank and n and m:  # an all-inf row and an all-inf column
        cost[rng.integers(n)] = np.inf
        cost[:, rng.integers(m)] = np.inf
    return cost


@settings(max_examples=300, deadline=None)
@given(seed=seeds, n=sizes, m=sizes, density=densities, blank=st.booleans())
@example(seed=1, n=70, m=70, density=0.0, blank=False)
@example(seed=2, n=70, m=3, density=0.0, blank=True)
@example(seed=3, n=0, m=5, density=0.0, blank=False)
def test_pairs_equal_scipy_on_continuous_costs(seed, n, m, density, blank):
    cost = random_cost(seed, n, m, density, blank, integers=False)
    assert assign(cost) == scipy_assign(cost)


@settings(max_examples=300, deadline=None)
@given(seed=seeds, n=sizes, m=sizes, density=densities, blank=st.booleans())
@example(seed=4, n=40, m=40, density=0.0, blank=False)
def test_same_cardinality_and_total_on_tied_costs(seed, n, m, density, blank):
    cost = random_cost(seed, n, m, density, blank, integers=True)
    pairs = assign(cost)
    ref = scipy_assign(cost)
    assert pairs == sorted(pairs)
    assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
    assert all(np.isfinite(cost[i, j]) for i, j in pairs)
    assert len(pairs) == len(ref)
    assert sum(cost[i, j] for i, j in pairs) == sum(cost[i, j] for i, j in ref)


def dense_ospa(a, b, c):
    """``metrics.ospa`` as it was: scipy on the dense cut-off matrix."""
    if len(a) > len(b):
        a, b = b, a
    m, n = len(a), len(b)
    if n == 0:
        return 0.0
    if m == 0:
        return c
    d = np.minimum(c, distances(a, b))
    rows, cols = linear_sum_assignment(d)
    loc = sum(d[i, j] for i, j in zip(rows, cols))
    return float((loc + c * (n - m)) / n)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, na=st.integers(0, 45), nb=st.integers(0, 45),
       at_cut=st.integers(0, 4), c=st.sampled_from([1.0, 2.5, 5.0]))
@example(seed=5, na=0, nb=0, at_cut=0, c=5.0)
@example(seed=6, na=0, nb=7, at_cut=0, c=5.0)
@example(seed=7, na=40, nb=45, at_cut=4, c=5.0)
def test_ospa_equals_dense_scipy_bit_for_bit(seed, na, nb, at_cut, c):
    rng = np.random.default_rng(seed)
    a = list(rng.uniform(-10.0, 10.0, (na, 3)))
    b = list(rng.uniform(-10.0, 10.0, (nb, 3)))
    # pairs exactly one cutoff apart, far from the cloud and from each other
    for k in range(at_cut):
        x = 40.0 * (k + 1)
        a.append(np.array([x, 0.0, 0.0]))
        b.append(np.array([x + c, 0.0, 0.0]))
    # one matrix, read as it is and transposed
    d = distances(a, b)
    assert ospa(d, c) == dense_ospa(a, b, c)
    assert ospa(d.T, c) == dense_ospa(b, a, c)
