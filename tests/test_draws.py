"""The ``Generator`` and ``math`` identities the sensing, worker and link
draws rest on.

Each tick draws one ``random(n)`` for its n candidates' detect decisions
and one ``standard_normal((m, k))`` for its m detected objects, and each
bounded value is ``a + (b - a) * random()``; the run outputs equal those
of per-object ``uniform`` and ``normal`` calls only while numpy computes
those calls this way.  The polar points take their sines and cosines
from numpy's stacked ``sin`` and ``cos``, and equal the per-object
``math`` forms, and so stay the same on every CPU, only while numpy
sends float64 ``sin`` and ``cos`` to libm (numpy's SIMD ``arctan2`` and
``hypot`` differ from libm, so angles are taken with ``math``).  Each
identity is checked element by element over 10^4 draws or more from one
seed, so a numpy that breaks one fails here by name and not only through
a golden digest.
"""

import math

import numpy as np

SEED = 20260
N = 10_000


def streams():
    return np.random.default_rng(SEED), np.random.default_rng(SEED)


def test_uniform_is_random():
    a, b = streams()
    assert [a.uniform() for _ in range(N)] == [b.random() for _ in range(N)]


def test_bounded_uniform_is_low_plus_span_times_random():
    a, b = streams()
    bounds = [(-0.05, 0.05), (0.0, 1920.0), (20.0, 120.0), (0.1, 0.3), (-0.87, 0.87)]
    for low, high in bounds:
        assert [a.uniform(low, high) for _ in range(N)] == \
            [low + (high - low) * b.random() for _ in range(N)]


def test_stacked_random_reads_the_stream_as_scalar_calls():
    a, b = streams()
    assert a.random((N // 4, 4)).ravel().tolist() == [b.random() for _ in range(N)]
    assert a.random(N).tolist() == [b.random() for _ in range(N)]


def test_stacked_standard_normal_reads_the_stream_row_by_row():
    a, b = streams()
    assert a.standard_normal((N // 4, 4)).tolist() == \
        [b.standard_normal(4).tolist() for _ in range(N // 4)]
    assert a.standard_normal((N // 3, 3)).ravel().tolist() == \
        [b.standard_normal() for _ in range(N // 3 * 3)]


def test_normal_is_zero_plus_sigma_times_a_stacked_standard_normal():
    """Per-value ``normal(0.0, s)`` calls, object by object, equal ``0.0 +
    s * z`` from one ``standard_normal((m, k))`` for a tick's m detected
    objects, for k of 0 to 4, each stack following the tick's
    ``random(n)``; so does ``normal(0.0, s, size=4)``, the camera
    reference's form."""
    a, b = streams()
    sigmas = [0.15, 0.02, 0.02, 0.1]
    for tick in range(N // 10):
        n, k = tick % 9, tick % 5
        assert [a.uniform() for _ in range(n)] == b.random(n).tolist()
        m = tick % (n + 1)
        z = b.standard_normal((m, k)).tolist()
        assert [[a.normal(0.0, s) for s in sigmas[:k]] for _ in range(m)] == \
            [[0.0 + s * zi for s, zi in zip(sigmas, row)] for row in z]
    for _ in range(N // 4):
        assert a.normal(0.0, 2.0, size=4).tolist() == \
            [0.0 + 2.0 * zi for zi in b.standard_normal(4).tolist()]


def test_stacked_sin_and_cos_are_libm():
    """Angles as the sensing and worker points see them (azimuths and
    elevations with noise, clutter azimuths, and zero), contiguous and as
    the azimuth and elevation columns of a row table."""
    rng = np.random.default_rng(SEED)
    angles = np.concatenate([rng.uniform(-math.pi - 0.1, math.pi + 0.1, 10 * N),
                             rng.uniform(-1e-3, 1e-3, N), [0.0, -0.0, math.pi, -math.pi]])
    rows = np.zeros((len(angles) // 2, 5))
    rows[:, 1:3] = angles[:len(rows) * 2].reshape(-1, 2)
    for stack in (angles, rows[:, 1:3]):
        values = stack.ravel().tolist()
        assert np.sin(stack).ravel().tolist() == [math.sin(x) for x in values]
        assert np.cos(stack).ravel().tolist() == [math.cos(x) for x in values]
