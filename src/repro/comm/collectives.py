"""NCCL-style collectives over per-device NumPy buffers.

LD-GPU calls ``ncclAllReduce`` on the ``pointers`` array after the pointing
phase and on the ``mate`` array after the matching phase (Algorithm 2).
Because the vertex partition is disjoint, only the owning device holds a
live value for each slot and everyone else holds the sentinel ``-1``, so a
MAX reduction reconstructs the global array unambiguously (the argument in
the paper's Lemma III.1 proof).

Cost model — the textbook ring allreduce NCCL uses for large messages:
``2·(N−1) steps``, each moving ``bytes/N`` at the link bandwidth plus a
per-step latency:  ``t = 2·(N−1)·(bytes/N)/bw + 2·(N−1)·α``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm.topology import Interconnect

__all__ = ["allreduce_max", "allreduce_sum", "broadcast",
           "hierarchical_allreduce_max", "hierarchical_allreduce_time",
           "ring_allreduce_time"]


def ring_allreduce_time(nbytes: int, num_devices: int,
                        link: Interconnect) -> float:
    """Seconds for a ring allreduce of ``nbytes`` across ``num_devices``.

    Bandwidth is the link's *collective* (NCCL-sustained) bandwidth, which
    also degrades with device count on shared fabrics — see
    :meth:`Interconnect.collective_bandwidth_bps`.
    """
    if num_devices <= 1:
        return 0.0
    steps = 2 * (num_devices - 1)
    chunk = nbytes / num_devices
    bw = link.collective_bandwidth_bps(num_devices)
    return steps * (chunk / bw + link.latency_s)


def _check(buffers: Sequence[np.ndarray]) -> None:
    if not buffers:
        raise ValueError("allreduce needs at least one buffer")
    shape, dtype = buffers[0].shape, buffers[0].dtype
    for b in buffers[1:]:
        if b.shape != shape or b.dtype != dtype:
            raise ValueError("allreduce buffers must share shape and dtype")


def allreduce_max(buffers: Sequence[np.ndarray],
                  link: Interconnect) -> float:
    """Elementwise MAX allreduce, in place on every buffer.

    Returns the modeled time in seconds.
    """
    _check(buffers)
    out = buffers[0].copy()
    for b in buffers[1:]:
        np.maximum(out, b, out=out)
    for b in buffers:
        b[...] = out
    return ring_allreduce_time(out.nbytes, len(buffers), link)


def allreduce_sum(buffers: Sequence[np.ndarray],
                  link: Interconnect) -> float:
    """Elementwise SUM allreduce, in place on every buffer."""
    _check(buffers)
    out = buffers[0].copy()
    for b in buffers[1:]:
        out += b
    for b in buffers:
        b[...] = out
    return ring_allreduce_time(out.nbytes, len(buffers), link)


def hierarchical_allreduce_time(
    nbytes: int,
    num_nodes: int,
    devices_per_node: int,
    intra: Interconnect,
    inter: Interconnect,
) -> float:
    """Seconds for a two-level allreduce of ``nbytes``: ring within each
    node, ring across node leaders, broadcast back — NCCL's
    tree-of-rings strategy for multi-node jobs."""
    # Stage 1: reduce to each node's leader (ring reduce ≈ half an
    # allreduce); Stage 2: allreduce across leaders; Stage 3: intra-node
    # broadcast of the result.
    t = 0.0
    if devices_per_node > 1:
        t += ring_allreduce_time(nbytes, devices_per_node, intra) / 2.0
    t += ring_allreduce_time(nbytes, num_nodes, inter)
    if devices_per_node > 1:
        t += nbytes / intra.collective_bandwidth_bps(devices_per_node) \
            + (devices_per_node - 1) * intra.latency_s
    return t


def hierarchical_allreduce_max(
    buffers: Sequence[np.ndarray],
    devices_per_node: int,
    intra: Interconnect,
    inter: Interconnect,
) -> float:
    """Two-level MAX allreduce (:func:`hierarchical_allreduce_time`);
    ``buffers`` are grouped into nodes by index.

    Returns the modeled time; the combine itself is exact, leaving every
    buffer equal to the global elementwise max.
    """
    _check(buffers)
    if devices_per_node < 1:
        raise ValueError("devices_per_node must be >= 1")
    if len(buffers) % devices_per_node:
        raise ValueError(
            f"{len(buffers)} buffers do not fill whole nodes of "
            f"{devices_per_node}"
        )
    out = buffers[0].copy()
    for b in buffers[1:]:
        np.maximum(out, b, out=out)
    for b in buffers:
        b[...] = out
    return hierarchical_allreduce_time(
        out.nbytes, len(buffers) // devices_per_node, devices_per_node,
        intra, inter,
    )


def broadcast(buffers: Sequence[np.ndarray], root: int,
              link: Interconnect) -> float:
    """Broadcast ``buffers[root]`` into every buffer; returns seconds.

    Modeled as a pipelined ring broadcast: ``(N−1)`` steps of the full
    payload at link bandwidth (NCCL pipelines chunks, so bandwidth-term is
    a single traversal).
    """
    _check(buffers)
    src = buffers[root]
    for i, b in enumerate(buffers):
        if i != root:
            b[...] = src
    n = len(buffers)
    if n <= 1:
        return 0.0
    return src.nbytes / link.collective_bandwidth_bps(n) + \
        (n - 1) * link.latency_s
