"""Deterministic RNG substreams and the one ordered map the searches use.

Everything runs on one thread: the per-sample range searches and the
falsifier's trials are consumed in order, so a caller can stop at the first
item that settles its answer.
"""

from __future__ import annotations

import numpy as np


def substream(seed, *indices) -> np.random.Generator:
    """Generator for an index-derived substream of ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *map(int, indices)]))


def parallel_map(fn, items):
    """Lazy, order-preserving ``map(fn, items)``.

    It is sequential. The name stays because the benchmark's tracer
    (``perfbench/trace.py``) wraps ``prange.parallel_map`` and
    ``integral.parallel_map`` by name, and a traced run fails with
    AttributeError if either is missing.
    """
    return map(fn, items)
