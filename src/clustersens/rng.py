"""Counter-based random streams for reproducible parallel simulation.

Each (seed, replicate) pair keys its own Philox-4x64 stream, so a
replicate's draws never depend on which other replicates were generated,
on generation order, or on the worker count. Within a replicate, draws
are consumed in the fixed order that ``simulation._draw`` documents.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def replicate_stream(seed: int, replicate_index: int) -> np.random.Generator:
    """Independent generator for one replicate of one scenario."""
    if replicate_index < 0:
        raise ValueError(f"replicate_index must be >= 0, got {replicate_index}")
    key = np.array([seed & _MASK64, replicate_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
