"""Seed plumbing: one run seed, independent named sub-streams.

Every consumer of randomness asks for a stream by name ("synth", "split",
"jitter", ...). Streams are derived from (seed, crc32(name)) so adding a new
consumer never shifts the draws seen by existing ones, and the same
(seed, name) pair always yields the same sequence on any platform.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, name: str) -> np.random.Generator:
    """Return a Generator for the named sub-stream of ``seed``."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), tag)))

