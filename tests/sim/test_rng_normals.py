"""``normals`` draws exactly what sequential ``Random.gauss`` calls draw.

The sensor and physics models draw their noise in batches through
:func:`repro.sim.rng.normals`; every recorded digest depends on those
batches being bit-identical to one ``rng.gauss(0.0, sigma)`` call per
value, including the half of a Box-Muller pair that ``gauss`` carries
between calls in ``rng.gauss_next``.
"""

import random
import struct

from hypothesis import given, settings, strategies as st

from repro.sim.rng import normals

seeds = st.integers(min_value=0, max_value=2 ** 64 - 1)
sigmas = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
batches = st.lists(st.lists(sigmas, min_size=1, max_size=6).map(tuple),
                   min_size=1, max_size=4)


def _bits(values):
    return [struct.pack("<d", value) for value in values]


def _twins(seed, carry):
    """Two generators in one state, with or without a pending carry."""
    reference, batched = random.Random(seed), random.Random(seed)
    if carry:
        reference.gauss()
        batched.gauss()
        assert batched.gauss_next is not None
    return reference, batched


@settings(max_examples=300)
@given(seed=seeds, carry=st.booleans(), batches=batches)
def test_batches_match_sequential_gauss(seed, carry, batches):
    reference, batched = _twins(seed, carry)
    for batch in batches:
        expected = [reference.gauss(0.0, sigma) for sigma in batch]
        assert _bits(normals(batched, batch)) == _bits(expected)
        assert batched.getstate() == reference.getstate()
        assert batched.gauss_next == reference.gauss_next


@settings(max_examples=100)
@given(seed=seeds, carry=st.booleans())
def test_gps_draws_with_an_int_mean(seed, carry):
    # GpsReceiver.read_fix draws its altitude noise as gauss(0, 2.0).
    reference, batched = _twins(seed, carry)
    expected = [reference.gauss(0.0, 1.2), reference.gauss(0.0, 1.2),
                reference.gauss(0.0, 0.12), reference.gauss(0.0, 0.12),
                reference.gauss(0, 2.0)]
    assert _bits(normals(batched, (1.2, 1.2, 0.12, 0.12, 2.0))) == \
        _bits(expected)
    assert batched.getstate() == reference.getstate()
    assert batched.gauss_next == reference.gauss_next


def test_empty_batch_draws_nothing():
    reference, batched = _twins(5, carry=True)
    assert normals(batched, ()) == []
    assert batched.getstate() == reference.getstate()
    assert batched.gauss_next == reference.gauss_next
