"""A Redis sorted set (ZSET): members with float scores, ordered queries.

Roshi stores its LWW time-series index in sorted sets — one "adds" set and
one "removes" set per key — so this structure is load-bearing for Subject 1.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Tuple


class SortedSet:
    """Score-ordered member collection with Redis-style operations.

    Members order by (score, member) so equal scores have a deterministic
    lexicographic order, matching Redis.
    """

    __slots__ = ("_scores", "_ordered")

    def __init__(self) -> None:
        self._scores: Dict[str, float] = {}
        self._ordered: List[Tuple[float, str]] = []

    def zadd(self, member: str, score: float, only_if_higher: bool = False) -> bool:
        """Insert or update ``member``; returns True if the entry changed.

        ``only_if_higher`` implements the GT-style conditional update Roshi
        uses so stale (lower-timestamp) writes never regress the index.
        """
        current = self._scores.get(member)
        if current is not None:
            if current == score or (only_if_higher and score < current):
                return False
            self._remove_ordered(current, member)
        self._scores[member] = score
        bisect.insort(self._ordered, (score, member))
        return True

    def zscore(self, member: str) -> Optional[float]:
        return self._scores.get(member)

    def zrem(self, member: str) -> bool:
        score = self._scores.pop(member, None)
        if score is None:
            return False
        self._remove_ordered(score, member)
        return True

    def zcard(self) -> int:
        return len(self._scores)

    def zrange(self, start: int = 0, stop: int = -1, desc: bool = False) -> List[str]:
        """Members by rank, inclusive stop, Redis index conventions."""
        items = [member for _, member in self._ordered]
        if desc:
            items.reverse()
        length = len(items)
        if start < 0:
            start = max(length + start, 0)
        if stop < 0:
            stop = length + stop
        if start > stop:
            return []
        return items[start : stop + 1]

    def zrange_withscores(
        self, start: int = 0, stop: int = -1, desc: bool = False
    ) -> List[Tuple[str, float]]:
        members = self.zrange(start, stop, desc=desc)
        return [(member, self._scores[member]) for member in members]

    def zrangebyscore(self, low: float, high: float) -> List[str]:
        left = bisect.bisect_left(self._ordered, (low, ""))
        out: List[str] = []
        for score, member in self._ordered[left:]:
            if score > high:
                break
            out.append(member)
        return out

    def members(self) -> Iterable[str]:
        return list(self._scores)

    def canonical_state(self) -> Dict[str, float]:
        """The set's whole content, read-only: its member -> score map (the
        rank order is derived from it)."""
        return self._scores

    def copy(self) -> "SortedSet":
        out = SortedSet()
        out._scores = dict(self._scores)
        out._ordered = list(self._ordered)
        return out

    def _remove_ordered(self, score: float, member: str) -> None:
        index = bisect.bisect_left(self._ordered, (score, member))
        if index < len(self._ordered) and self._ordered[index] == (score, member):
            self._ordered.pop(index)

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, member: str) -> bool:
        return member in self._scores

    def __repr__(self) -> str:
        return f"SortedSet({self._ordered!r})"
