"""Deterministic shard-k-of-n planning for CI / fleet splits.

``shard_ids`` is the single source of truth for the partition: round-robin
by position, so shards stay balanced even when the suite is sorted by
cost-correlated id order, and the union of shards 1..n is exactly the
input (order preserved within each shard).  The runners apply it to the
full deduplicated batch *before* any cache lookup — a warm cache must
not shift the partition, or concurrent shards could collectively skip a
benchmark.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.core.backends.base import BackendError

_T = TypeVar("_T")


def parse_shard(text: str) -> tuple[int, int]:
    """Parse a CLI ``K/N`` shard spec into ``(index, count)``."""
    index_s, sep, count_s = text.partition("/")
    try:
        if not sep:
            raise ValueError(text)
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise BackendError(
            f"bad shard spec {text!r}: expected K/N, e.g. 1/4"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise BackendError(
            f"bad shard spec {text!r}: need 1 <= K <= N with N >= 1"
        )
    return index, count


def shard_ids(ids: Sequence[_T], index: int, count: int) -> tuple[_T, ...]:
    """The ordered slice of *ids* owned by shard *index* of *count* (1-based).

    Generic over the element type: bench ids, sweep points and fleet
    units partition through this one function, so the round-robin scheme
    can never diverge between them.
    """
    if count < 1 or not 1 <= index <= count:
        raise BackendError(f"bad shard {index}/{count}: need 1 <= K <= N")
    return tuple(ids[index - 1 :: count])
