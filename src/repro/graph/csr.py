"""Compressed Sparse Row graph storage.

This mirrors the representation used by LD-GPU (§III-A of the paper): a
simple undirected graph held as three flat arrays — a vertex offset array
(``indptr``), a 64-bit edge endpoint array (``indices``) and an edge weight
array (``weights``).  Both directions of every undirected edge are stored, so
``indices`` has ``2·|E|`` entries for a graph with ``|E|`` undirected edges.

The class is deliberately a thin, immutable-by-convention container: all
algorithmic work in :mod:`repro.matching` operates directly on the arrays
(views, never copies) so that per-device sub-graphs in the multi-GPU
simulation can alias the host arrays the way ``cudaMemcpyAsync`` sources do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["CSRGraph", "GraphFormatError"]


class GraphFormatError(ValueError):
    """Raised when arrays handed to :class:`CSRGraph` are inconsistent."""


@dataclass
class CSRGraph:
    """An undirected, positively weighted graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; row ``v``'s adjacency occupies
        ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64`` array of neighbour ids (each undirected edge appears twice).
    weights:
        ``float64`` array aligned with ``indices``; weights are strictly
        positive, matching the paper's ``w : E -> R_{>0}``.
    name:
        Optional label used by the benchmark harness and reports.

    Notes
    -----
    ``validate()`` is *not* run by the constructor: builders that already
    guarantee well-formedness (generators, partition slicing) skip the O(m)
    checks.  Use :meth:`CSRGraph.checked` when ingesting untrusted arrays.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    name: str = field(default="graph")
    # Derived-array memos: nearly every algorithm needs them, and they
    # are exposed read-only so a cached array can never be silently
    # corrupted by a caller.  Per instance: a ``reweighted`` copy shares
    # ``indptr``/``indices`` but derives its own sort order.  Rebinding
    # ``indptr``, ``indices`` or ``weights`` drops them all.
    _degrees: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _canonical_eids: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _sorted_order: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: :func:`~repro.telemetry.provenance.graph_fingerprint`'s memo.
    _fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in ("indptr", "indices", "weights"):
            for memo in ("_degrees", "_canonical_eids", "_sorted_order",
                         "_fingerprint"):
                object.__setattr__(self, memo, None)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)

    @classmethod
    def checked(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a graph and run the full validity check."""
        g = cls(indptr, indices, weights, name)
        g.validate()
        return g

    @classmethod
    def empty(cls, num_vertices: int = 0, name: str = "empty") -> "CSRGraph":
        """An edgeless graph on ``num_vertices`` vertices."""
        return cls(
            np.zeros(num_vertices + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            name,
        )

    @classmethod
    def from_buffers(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        name: str = "graph",
    ) -> "CSRGraph":
        """Zero-copy graph over externally owned storage.

        Intended for arrays mapped out of a shared-memory segment
        (:mod:`repro.harness.shm`): the inputs are wrapped in *read-only
        views* — no bytes are copied as long as each array is already
        contiguous with the canonical dtype — so mutating the graph
        through this object is impossible and mutating the underlying
        buffer is the caller's contract to avoid.  The memoised
        :attr:`degrees` / :meth:`canonical_edge_ids` /
        :meth:`sorted_order` derivations work unchanged (they allocate
        fresh arrays; nothing is written back into the buffers).  The
        caller keeps the buffers alive for the graph's lifetime; numpy
        views hold a reference to the exporting object, which pins
        ``SharedMemory`` mappings automatically.
        """
        views = []
        for arr, dtype in (
            (indptr, np.int64), (indices, np.int64), (weights, np.float64),
        ):
            v = np.ascontiguousarray(arr, dtype=dtype)
            if v is arr:  # don't flip writability on the caller's array
                v = v.view()
            v.setflags(write=False)
            views.append(v)
        return cls(*views, name)

    def export_buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only views of ``(indptr, indices, weights)``.

        The publish half of the shared-memory plane: callers copy these
        into a segment (or hand them to :meth:`from_buffers` for an
        in-process alias) without being able to corrupt the source.
        """
        out = []
        for arr in (self.indptr, self.indices, self.weights):
            v = arr.view()
            v.setflags(write=False)
            out.append(v)
        return tuple(out)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """``|V|``."""
        return len(self.indptr) - 1

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) adjacency entries, ``2·|E|``."""
        return len(self.indices)

    @property
    def num_edges(self) -> int:
        """``|E|`` — undirected edge count."""
        return len(self.indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex degree array (``int64``; cached, read-only)."""
        if self._degrees is None:
            d = np.diff(self.indptr)
            d.setflags(write=False)
            self._degrees = d
        return self._degrees

    @property
    def max_degree(self) -> int:
        """``d_max`` as reported in the paper's Table I."""
        d = self.degrees
        return int(d.max()) if len(d) else 0

    @property
    def avg_degree(self) -> float:
        """``d_avg`` as reported in the paper's Table I."""
        n = self.num_vertices
        return (self.num_directed_edges / n) if n else 0.0

    @property
    def total_weight(self) -> float:
        """Sum of undirected edge weights (each edge counted once)."""
        return float(self.weights.sum()) / 2.0

    def memory_bytes(self, index_bytes: int = 8, weight_bytes: int = 8) -> int:
        """Bytes needed to hold the CSR arrays at the given widths.

        LD-GPU uses 64-bit indices (``index_bytes=8``) while SR-GPU uses a
        32-bit representation (``index_bytes=4``, ``weight_bytes=4``) — the
        reason SR-GPU addresses less memory but also overflows on LARGE
        inputs in the paper's Table I.
        """
        return (
            len(self.indptr) * index_bytes
            + len(self.indices) * index_bytes
            + len(self.weights) * weight_bytes
        )

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    def neighbors(self, v: int) -> np.ndarray:
        """View of ``v``'s neighbour ids."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """View of the weights aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        nbrs = self.neighbors(u)
        hits = np.nonzero(nbrs == v)[0]
        if len(hits) == 0:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        return float(self.neighbor_weights(u)[hits[0]])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is present."""
        return bool(np.any(self.neighbors(u) == v))

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, w)`` with ``u < v``."""
        for u in range(self.num_vertices):
            lo, hi = self.indptr[u], self.indptr[u + 1]
            for k in range(lo, hi):
                v = int(self.indices[k])
                if u < v:
                    yield u, v, float(self.weights[k])

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised undirected edge list ``(u, v, w)`` with ``u < v``."""
        rows = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.degrees
        )
        keep = rows < self.indices
        return rows[keep], self.indices[keep], self.weights[keep]

    def canonical_edge_ids(self) -> np.ndarray:
        """Per adjacency entry, a total-order id for its undirected edge.

        ``eid({u, v}) = min(u, v) * n + max(u, v)`` — identical from both
        endpoints, so it serves as the deterministic tie-breaking key the
        locally dominant algorithms need to guarantee progress on weight
        ties (DESIGN.md §5).  Exact for ``n^2 < 2^63``.  Cached on first
        access (read-only): the O(m) derivation used to be repeated per
        algorithm call.
        """
        if self._canonical_eids is None:
            n = self.num_vertices
            rows = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
            lo = np.minimum(rows, self.indices)
            hi = np.maximum(rows, self.indices)
            eids = lo * np.int64(n) + hi
            eids.setflags(write=False)
            self._canonical_eids = eids
        return self._canonical_eids

    def sorted_order(self) -> np.ndarray:
        """Permutation of the adjacency entries into pointing order.

        The one place the order is decided: row ascending, then weight
        descending, then canonical edge id descending.  Rows stay
        contiguous, so a row range ``[a, b)`` is the slice
        ``order[indptr[a]:indptr[b]]``.  Within a row the key is a strict
        total order (a simple graph never repeats a neighbour, hence
        never an edge id): Lemma III.1's ``(w, eid)`` tie-break, so a
        row's first unmatched entry is its vertex's locally dominant
        candidate.  Cached on first access (``int64``, read-only).
        """
        if self._sorted_order is None:
            n = self.num_vertices
            rows = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
            # Canonical eids are non-negative, so negation is safe.
            order = np.lexsort((-self.canonical_edge_ids(),
                                -self.weights, rows))
            order.setflags(write=False)
            self._sorted_order = order
        return self._sorted_order

    # ------------------------------------------------------------------ #
    # validation / transforms
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Raise :class:`GraphFormatError` unless the CSR arrays encode a
        simple undirected graph with positive weights."""
        if len(self.indptr) < 1:
            raise GraphFormatError("indptr must have length >= 1")
        if self.indptr[0] != 0:
            raise GraphFormatError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if self.indptr[-1] != len(self.indices):
            raise GraphFormatError(
                f"indptr[-1] ({self.indptr[-1]}) != len(indices) "
                f"({len(self.indices)})"
            )
        if len(self.indices) != len(self.weights):
            raise GraphFormatError("indices and weights length mismatch")
        n = self.num_vertices
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise GraphFormatError("neighbour id out of range")
        if len(self.weights) and not np.all(self.weights > 0):
            raise GraphFormatError("edge weights must be strictly positive")
        rows = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
        if np.any(rows == self.indices):
            raise GraphFormatError("self-loops are not allowed")
        # Symmetry + simplicity: the multiset of (min, max) pairs must
        # contain every pair an even number of times with matching weights.
        lo = np.minimum(rows, self.indices)
        hi = np.maximum(rows, self.indices)
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], self.weights[order]
        if len(lo) % 2:
            raise GraphFormatError("odd number of directed entries")
        if not (
            np.array_equal(lo[0::2], lo[1::2])
            and np.array_equal(hi[0::2], hi[1::2])
        ):
            raise GraphFormatError("adjacency is not symmetric")
        plo, phi = lo[0::2], hi[0::2]
        if np.any((plo[1:] == plo[:-1]) & (phi[1:] == phi[:-1])):
            raise GraphFormatError("parallel edges are not allowed")
        if not np.allclose(w[0::2], w[1::2]):
            raise GraphFormatError("edge weights are not symmetric")

    def sort_adjacency(self) -> "CSRGraph":
        """Return a copy with each row's neighbours sorted ascending."""
        indices = self.indices.copy()
        weights = self.weights.copy()
        for v in range(self.num_vertices):
            lo, hi = self.indptr[v], self.indptr[v + 1]
            order = np.argsort(indices[lo:hi], kind="stable")
            indices[lo:hi] = indices[lo:hi][order]
            weights[lo:hi] = weights[lo:hi][order]
        return CSRGraph(self.indptr.copy(), indices, weights, self.name)

    def reweighted(self, weights: np.ndarray) -> "CSRGraph":
        """Same structure with a new aligned weight array."""
        if len(weights) != len(self.indices):
            raise GraphFormatError("weight array length mismatch")
        return CSRGraph(self.indptr, self.indices, weights, self.name)

    def row_slice(self, start: int, stop: int) -> "CSRGraph":
        """Sub-CSR for the contiguous vertex range ``[start, stop)``.

        Neighbour ids stay *global* (they may point outside the range) —
        exactly how a device partition stores cut edges in §III-A.  The
        ``indices`` / ``weights`` arrays are views into the parent.
        """
        base = self.indptr[start]
        indptr = self.indptr[start : stop + 1] - base
        lo, hi = self.indptr[start], self.indptr[stop]
        return CSRGraph(
            indptr,
            self.indices[lo:hi],
            self.weights[lo:hi],
            f"{self.name}[{start}:{stop}]",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, d_max={self.max_degree}, "
            f"d_avg={self.avg_degree:.1f})"
        )
