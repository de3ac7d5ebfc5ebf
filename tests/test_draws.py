"""The ``Generator`` identities the sensing, worker and link draws rest on.

Each object draws one ``random()`` and one ``standard_normal(k)``, and
each bounded value is ``a + (b - a) * random()``; the run outputs equal
those of the older ``uniform`` and ``normal`` calls only while numpy
computes those calls this way.  Each identity is checked element by
element over 10^4 draws from one seed, so a numpy that breaks one fails
here by name and not only through a golden digest.
"""

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


def test_normal_is_zero_plus_sigma_times_a_stacked_standard_normal():
    """``normal(0.0, s)`` per value equals ``0.0 + s * z`` from one
    ``standard_normal(k)`` per object, for k of 0 to 4, each object's
    draw following a scalar ``random()``; so does ``normal(0.0, s,
    size=4)``, the camera's older form."""
    a, b = streams()
    sigmas = [0.15, 0.02, 0.02, 0.1]
    for n in range(N // 2):
        assert a.random() == b.random()
        z = b.standard_normal(n % 5).tolist()
        assert [a.normal(0.0, s) for s in sigmas[:n % 5]] == \
            [0.0 + s * zi for s, zi in zip(sigmas, z)]
    for _ in range(N // 4):
        assert a.normal(0.0, 2.0, size=4).tolist() == \
            [0.0 + 2.0 * zi for zi in b.standard_normal(4).tolist()]
