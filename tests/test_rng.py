import numpy as np
import pytest

from clustersens.rng import ReplicateStreams, replicate_stream

SEEDS = [0, 1, 2**63, 2**64 - 1]
INDICES = [7, 0, 3, 2**32 + 1]  # out of order, one past 32 bits


def draws(rng):
    """A sequence mixing every draw the simulator makes, in the order a meta replicate makes them."""
    sizes = rng.integers(50, 151, size=5)
    betas = rng.multivariate_normal([3.0, 4.0], [[2.0, 0.05], [0.05, 6.0]], size=5)
    n = 7
    return [sizes, betas, rng.normal(0.0, 0.5, n), rng.random(2 * n), rng.normal(0.0, 1.0, n)]


def fresh(seed, index):
    key = np.array([seed, index], dtype=np.uint64)  # a list of these ints would cast through float
    return np.random.Generator(np.random.Philox(key=key))


def assert_same(left, right):
    assert all(np.array_equal(a, b) for a, b in zip(left, right, strict=True))


@pytest.mark.parametrize("seed", SEEDS)
def test_a_re_keyed_stream_draws_what_a_fresh_philox_draws(seed):
    streams = ReplicateStreams(seed)
    for index in INDICES:
        assert_same(draws(streams(index)), draws(fresh(seed, index)))


@pytest.mark.parametrize("seed", SEEDS)
def test_re_keying_leaves_no_buffered_state_behind(seed):
    streams = ReplicateStreams(seed)
    expected = {index: draws(fresh(seed, index)) for index in INDICES}
    for index in INDICES + INDICES[::-1]:
        rng = streams(index)
        rng.integers(0, 2**31, size=3)  # leaves a buffered 32-bit half
        rng = streams(index)
        assert_same(draws(rng), expected[index])


def test_replicate_stream_agrees_with_the_block_path():
    streams = ReplicateStreams(2**63)
    for index in INDICES:
        assert_same(draws(replicate_stream(2**63, index)), draws(streams(index)))


def test_replicate_stream_returns_a_new_generator_each_call():
    first, second = replicate_stream(5, 1), replicate_stream(5, 2)
    assert first is not second
    expected = draws(fresh(5, 1))
    second.random(3)
    assert_same(draws(first), expected)


@pytest.mark.parametrize("index", [-1, 2**64])
def test_an_index_outside_64_bits_is_refused(index):
    with pytest.raises(ValueError, match="replicate_index must lie in"):
        replicate_stream(1, index)
    with pytest.raises(ValueError, match="replicate_index must lie in"):
        ReplicateStreams(1)(index)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_64_bits_is_refused(seed):
    with pytest.raises(ValueError, match="seed must lie in"):
        ReplicateStreams(seed)
    with pytest.raises(ValueError, match="seed must lie in"):
        replicate_stream(seed, 0)
