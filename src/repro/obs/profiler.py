"""Hot-loop step attribution for the TASE driver.

The TASE driver executes straight-line runs as one fused loop, so the
natural attribution unit is the *superblock entry pc*: the driver
calls :meth:`HotLoopProfiler.record_block` once per block transition
with the entry pc and the number of steps charged while the block was
current (body steps plus its control op, including truncation probes).
That granularity keeps the disabled cost to one ``is not None`` check
per superblock — the per-step hot path never sees the profiler — which
is how the <3% disabled-overhead gate holds.

Attribution is exact: the per-pc tallies sum to precisely the steps
the driver charged (``sum(counts.values()) == TASEResult.total_steps``
for a single run).

Per-instruction tracing is the engine's ``step_hook``, not the profiler.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

__all__ = [
    "HotLoopProfiler",
    "render_hotspots",
    "top_hotspots",
]


class HotLoopProfiler:
    """Attributes executed TASE steps to superblock entry pcs."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        #: superblock entry pc -> attributed steps.
        self.counts: Dict[int, int] = {}

    def record_block(self, pc: int, steps: int) -> None:
        """Charge ``steps`` driver steps to the block entered at ``pc``.

        Called by the driver once per superblock transition — never per
        step — so it costs one dict update per block.
        """
        counts = self.counts
        counts[pc] = counts.get(pc, 0) + steps

    # -- aggregation ---------------------------------------------------

    @property
    def total_steps(self) -> int:
        """Steps attributed so far."""
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

    def top(self, n: int = 10) -> List[Tuple[int, int]]:
        """The ``n`` hottest blocks as ``(entry pc, steps)``."""
        return top_hotspots(self.counts, n)

    def render_table(self, n: int = 10) -> str:
        """The per-contract top-N hotspot table."""
        return render_hotspots(self.counts, n)


def top_hotspots(counts: Mapping[int, int], n: int = 10) -> List[Tuple[int, int]]:
    """``(entry pc, steps)`` sorted hottest first (pc breaks ties)."""
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:n]


def render_hotspots(counts: Mapping[int, int], n: int = 10) -> str:
    """Human rendering of a hotspot table."""
    total = sum(counts.values())
    lines = [f"hot superblocks: {total:,} steps over {len(counts)} blocks"]
    if not total:
        return lines[0] + "\n"
    for pc, steps in top_hotspots(counts, n):
        lines.append(f"  {pc:#08x}  {steps:>12,} steps  {steps / total:6.1%}")
    return "\n".join(lines) + "\n"
