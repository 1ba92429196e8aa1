"""Hot-loop step attribution for the TASE driver.

The TASE driver executes straight-line runs as one fused loop, so the
natural attribution unit is the *superblock entry pc*: the driver
calls :meth:`HotLoopProfiler.record_block` once per block transition
with the entry pc and the number of steps charged while the block was
current (body steps plus its control op, including truncation probes).
That granularity keeps the disabled cost to one ``is not None`` check
per superblock — the per-step hot path never sees the profiler — which
is how the <3% disabled-overhead gate holds.

Two modes:

* ``"count"`` — exact: the per-pc tallies sum to precisely the steps
  the driver charged (``sum(counts.values()) == TASEResult.total_steps``
  for a single run), the mode tests and ``repro report`` use;
* ``"sample"`` — every ``interval`` executed steps one sample of
  ``interval`` steps is attributed to the block that crossed the
  threshold.  Cheaper bookkeeping per call and statistically the same
  table on hot contracts: the production mode.

Per-instruction tracing is the engine's ``step_hook``, not the profiler.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "HotLoopProfiler",
    "render_hotspots",
    "top_hotspots",
]


class HotLoopProfiler:
    """Attributes executed TASE steps to superblock entry pcs."""

    __slots__ = ("mode", "interval", "counts", "_credit")

    def __init__(self, mode: str = "count", interval: int = 256) -> None:
        if mode not in ("count", "sample"):
            raise ValueError(f"unknown profiler mode: {mode!r}")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.mode = mode
        self.interval = interval
        #: superblock entry pc -> attributed steps.
        self.counts: Dict[int, int] = {}
        self._credit = interval

    def record_block(self, pc: int, steps: int) -> None:
        """Charge ``steps`` driver steps to the block entered at ``pc``.

        Called by the driver once per superblock transition — never per
        step — so even counting mode costs one dict update per block.
        """
        if self.mode == "count":
            counts = self.counts
            counts[pc] = counts.get(pc, 0) + steps
            return
        credit = self._credit - steps
        if credit > 0:
            self._credit = credit
            return
        interval = self.interval
        samples = 1 + (-credit) // interval
        self._credit = credit + samples * interval
        counts = self.counts
        counts[pc] = counts.get(pc, 0) + samples * interval

    # -- aggregation ---------------------------------------------------

    @property
    def total_steps(self) -> int:
        """Steps attributed so far (exact in counting mode)."""
        return sum(self.counts.values())

    def snapshot(self) -> Dict[int, int]:
        """A copy of the current tallies (diff with :meth:`delta`)."""
        return dict(self.counts)

    def delta(self, before: Mapping[int, int]) -> Dict[int, int]:
        """Per-pc step growth since a :meth:`snapshot` (positive only)."""
        out: Dict[int, int] = {}
        for pc, count in self.counts.items():
            grown = count - before.get(pc, 0)
            if grown > 0:
                out[pc] = grown
        return out

    def merge(self, other) -> None:
        """Fold another profiler's (or a plain dict's) tallies in."""
        counts = other.counts if isinstance(other, HotLoopProfiler) else other
        for pc, count in counts.items():
            self.counts[pc] = self.counts.get(pc, 0) + int(count)

    def clear(self) -> None:
        self.counts.clear()
        self._credit = self.interval

    def top(self, n: int = 10) -> List[Tuple[int, int]]:
        """The ``n`` hottest blocks as ``(entry pc, steps)``."""
        return top_hotspots(self.counts, n)

    def render_table(self, n: int = 10) -> str:
        """The per-contract top-N hotspot table."""
        return render_hotspots(self.counts, n, mode=self.mode)


def top_hotspots(counts: Mapping[int, int], n: int = 10) -> List[Tuple[int, int]]:
    """``(entry pc, steps)`` sorted hottest first (pc breaks ties)."""
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:n]


def render_hotspots(
    counts: Mapping[int, int], n: int = 10, mode: Optional[str] = None
) -> str:
    """Human rendering of a hotspot table."""
    total = sum(counts.values())
    title = "hot superblocks"
    if mode == "sample":
        title += " (sampled)"
    lines = [f"{title}: {total:,} steps over {len(counts)} blocks"]
    if not total:
        return lines[0] + "\n"
    for pc, steps in top_hotspots(counts, n):
        lines.append(f"  {pc:#08x}  {steps:>12,} steps  {steps / total:6.1%}")
    return "\n".join(lines) + "\n"
