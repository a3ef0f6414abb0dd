"""Counter-based random streams for reproducible parallel simulation.

Each (seed, replicate) pair keys its own Philox-4x64 stream, so a
replicate's draws never depend on which other replicates were generated,
on generation order, or on the worker count. Within a replicate, draws
are consumed in the fixed order that ``simulation._draw`` documents.

A Philox stream is a function of its key and counter alone, so one bit
generator re-keyed to [seed, i] with its counter and buffers cleared
draws bit for bit what a fresh ``Philox(key=[seed, i])`` draws, for a
fraction of the cost of building one.
"""

from __future__ import annotations

import numpy as np

_MAX_KEY = (1 << 64) - 1


def _check_key(name: str, value: int) -> None:
    if not 0 <= value <= _MAX_KEY:
        raise ValueError(f"{name} must lie in [0, 2**64 - 1], got {value}")


class ReplicateStreams:
    """The replicate streams of one seed, drawn through one re-keyed generator.

    ``streams(i)`` returns the generator set to the stream of replicate i,
    which draws what ``np.random.Generator(np.random.Philox(key=[seed, i]))``
    draws. Every call re-keys the same generator, so it ends the stream the
    previous call returned: finish with one replicate's draws before asking
    for the next. An object is meant for one thread of work; keep one per
    unit of work rather than sharing it.
    """

    def __init__(self, seed: int):
        _check_key("seed", seed)
        self._key = np.array([seed, 0], dtype=np.uint64)
        zeros = np.zeros(4, dtype=np.uint64)
        # what a fresh Philox(key=[seed, i]) holds; has_uint32 is cleared so
        # that a 32-bit half left buffered by the previous stream is dropped
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": self._key},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bit_generator = np.random.Philox(key=self._key)
        self._generator = np.random.Generator(self._bit_generator)

    def __call__(self, replicate_index: int) -> np.random.Generator:
        _check_key("replicate_index", replicate_index)
        self._key[1] = replicate_index
        self._bit_generator.state = self._state  # the setter copies the arrays
        return self._generator


def replicate_stream(seed: int, replicate_index: int) -> np.random.Generator:
    """Independent generator for one replicate of one scenario."""
    return ReplicateStreams(seed)(replicate_index)
