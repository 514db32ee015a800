"""Deterministic RNG substreams and the one ordered map the searches use.

Everything runs on one thread: the per-sample range searches and the
falsifier's chunks of trials are consumed in order, so a caller can stop at
the first item that settles its answer.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def substream(seed, *indices) -> np.random.Generator:
    """Generator for an index-derived substream of ``seed``, which must lie
    in [0, 2**32): each seed names its own stream, none an alias of another."""
    if not 0 <= int(seed) < 2**32:
        raise InputError(f"seed must lie in [0, 2**32), got {seed}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, indices)]))


def parallel_map(fn, items):
    """Lazy, order-preserving ``map(fn, items)``.

    It is sequential. The name stays because the benchmark's tracer
    (``perfbench/trace.py``) wraps ``prange.parallel_map`` and
    ``integral.parallel_map`` by name, and a traced run fails with
    AttributeError if either is missing.
    """
    return map(fn, items)
