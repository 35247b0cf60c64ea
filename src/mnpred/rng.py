"""Deterministic, addressable random-number streams.

Every stochastic routine in the package draws from a stream addressed by
(master seed, path of child indices).  Identical addresses reproduce
identical draws, and distinct addresses give statistically independent
substreams, so simulation iterations can be re-run or reordered without
changing any result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class RngStream:
    """Address of an independent PCG64 substream."""

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValidationError(f"seed must be at least 0, got {self.seed}")

    def child(self, *indices: int) -> "RngStream":
        """Derive a substream; ``child(i).child(j)`` equals ``child(i, j)``."""
        return RngStream(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def require_stream(rng, caller: str) -> RngStream:
    """Return ``rng`` if it is an RngStream.  A shared live Generator would
    interleave its callers' draws and a bare seed bypasses the stream layout."""
    if not isinstance(rng, RngStream):
        raise ValidationError(f"{caller} needs an RngStream, got {type(rng).__name__}")
    return rng
