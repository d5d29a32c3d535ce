"""When passes run, and on which CPU.

A run spends its time in one phase of untraced passes, or, when traced,
half in untraced and half in traced passes.

The vCPUs of a shared VM can differ in speed by 2x, and each one's speed
drifts on its own over seconds to minutes.  A process left to the
scheduler runs wherever it happens to land, so its timings are bimodal.
Passes therefore rotate over (at most) two CPUs, and a block of
consecutive passes, one per CPU, weighs them equally.
"""

from __future__ import annotations

import os
import statistics
import time

_HAS_AFFINITY = hasattr(os, "sched_setaffinity")
ALLOWED = frozenset(os.sched_getaffinity(0)) if _HAS_AFFINITY else frozenset()
ROTATION = sorted(ALLOWED)[:2]
BLOCK = max(1, len(ROTATION))
MIN_PASSES = {"plain": 2 * BLOCK, "traced": BLOCK}


def phases(seconds: float, trace: int) -> list[tuple[str, float]]:
    """(phase, time budget) pairs of one run."""
    if trace:
        return [("plain", seconds / 2), ("traced", seconds / 2)]
    return [("plain", seconds)]


def pin(k: int) -> None:
    """Run this process (and children it starts from now on) on CPU k of the rotation."""
    if ROTATION:
        os.sched_setaffinity(0, {ROTATION[k % len(ROTATION)]})


def unpin() -> None:
    if ALLOWED:
        os.sched_setaffinity(0, ALLOWED)


def more_passes(walls: list[float], phase: str, end: float) -> bool:
    """Whether to start another pass: up to the phase's minimum, then while
    one more fits before end, and always until the current block is whole."""
    if len(walls) < MIN_PASSES[phase] or len(walls) % BLOCK:
        return True
    return time.perf_counter() + statistics.median(walls) <= end
