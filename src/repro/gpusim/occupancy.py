"""Warp work assignment and SM occupancy.

§IV-C of the paper studies two device-utilisation signals: per-warp edge
work (Fig. 8) and per-iteration Streaming Multiprocessor occupancy
(Fig. 11).  Both derive from how the pointing kernel distributes contiguous
vertex groups across warps; this module computes them analytically from the
frontier's degree array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.spec import DeviceSpec

__all__ = ["warp_work_distribution", "sm_occupancy", "WarpWorkStats"]


@dataclass(frozen=True)
class WarpWorkStats:
    """Per-kernel warp work summary feeding Fig. 8 / the cost model."""

    num_warps: int
    total_work: int
    max_work: int
    mean_work: float
    std_work: float

    @property
    def imbalance(self) -> float:
        """Max/mean warp work (1.0 = perfectly balanced)."""
        return self.max_work / self.mean_work if self.mean_work > 0 else 1.0


def warp_work_distribution(
    work_per_vertex: np.ndarray, vertices_per_warp: int
) -> WarpWorkStats:
    """Work per warp when contiguous groups of ``vertices_per_warp``
    vertices are assigned to each warp (Algorithm 3's distribution)."""
    if vertices_per_warp < 1:
        raise ValueError("vertices_per_warp must be >= 1")
    nv = len(work_per_vertex)
    if nv == 0:
        return WarpWorkStats(0, 0, 0, 0.0, 0.0)
    starts = np.arange(0, nv, vertices_per_warp)
    warp_work = np.add.reduceat(
        np.asarray(work_per_vertex, dtype=np.int64), starts
    )
    # ``np.mean`` / ``np.std`` spelled as their underlying ufunc
    # reductions, in the same operation order (float64 sum, divide;
    # squared deviations, float64 sum, divide, sqrt), so the results
    # are bit-identical without the wrappers' per-call overhead.
    k = len(starts)
    mean = np.add.reduce(warp_work, dtype=np.float64) / k
    dev = np.subtract(warp_work, mean)
    var = np.add.reduce(np.square(dev, out=dev)) / k
    return WarpWorkStats(
        num_warps=k,
        total_work=int(warp_work.sum()),
        max_work=int(warp_work.max()),
        mean_work=float(mean),
        std_work=float(np.sqrt(var)),
    )


def sm_occupancy(spec: DeviceSpec, num_warps: int) -> float:
    """Achieved occupancy for a launch of ``num_warps`` warps.

    Launches larger than the device's resident-warp capacity saturate the
    SMs (occupancy → 1); smaller launches leave SMs idle — the collapse the
    paper's occupancy outliers (mycielskian18, mouse_gene) show once the
    matching frontier shrinks below the device's width.
    """
    if num_warps < 0:
        raise ValueError("num_warps must be >= 0")
    cap = spec.occupancy_capacity
    if cap == 0:
        return 0.0
    return min(1.0, num_warps / cap)
