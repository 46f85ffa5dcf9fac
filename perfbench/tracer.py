"""In-memory span tracer for the per-layer (``--trace 1``) run.

The tracer wraps each layer's public functions and methods from the
benchmark's own files: it patches the class attributes, and the module
attributes at the import site the caller looks them up from (for
example ``repro.matching.ld_gpu.allreduce_max``).  Nothing under
``src/`` changes.  Spans are kept in memory as
``[name, start, end, parent, op]`` and written out when the run ends.
A span's self time is its duration minus its direct children's; the
self time of the benchmark's own ``op`` root span is the part of an op
no layer accounts for (``trace.unattributed_frac``).

Only the main thread records: the worker's heartbeat thread calls
store methods concurrently, and its spans would not nest.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
import types
from pathlib import Path
from typing import Any, Callable

#: (module, class or None, attributes, span name).  Module attributes
#: are patched where the calling module looks them up.
TARGETS: tuple[tuple[str, str | None, tuple[str, ...], str], ...] = (
    ("repro.harness.datasets", None,
     ("rmat_graph", "webcrawl_graph", "powerlaw_cluster_graph",
      "uniform_random_graph", "queen_mesh", "mycielskian_graph",
      "fem_mesh_3d", "kmer_graph", "similarity_graph"), "graph.build"),
    ("repro.graph.csr", "CSRGraph", ("reweighted",), "graph.build"),
    ("repro.graph.overlay", "OverlayGraph",
     ("__init__", "insert", "delete", "reweight", "row_arrays",
      "edge_weight", "has_edge", "edges", "to_csr"), "graph.overlay"),
    ("repro.matching.ld_gpu", None,
     ("edge_balanced_partition", "vertex_balanced_partition",
      "plan_batches", "auto_batch_count"), "partition.plan"),
    ("repro.matching.pointer_index", "PointerIndex", ("__init__",),
     "pointer_index.build"),
    ("repro.matching.pointer_index", "PointerIndex", ("point",),
     "pointer_index.point"),
    ("repro.matching.pointer_index", "MutualIndex", ("find_pairs",),
     "mutual_index.find_pairs"),
    ("repro.matching.ld_gpu", None,
     ("pointing_kernel_cost", "matching_kernel_cost",
      "dual_buffer_schedule", "h2d_time"), "gpusim.cost_model"),
    ("repro.matching.ld_gpu", None, ("allreduce_max",), "comm.allreduce"),
    ("repro.engine.cells", None, ("execute",), "engine.execute"),
    ("repro.telemetry.provenance", None, ("build_manifest",),
     "engine.provenance"),
    ("repro.engine.record", "RunRecord", ("to_json", "from_json"),
     "engine.record_json"),
    ("repro.api", None,
     ("run", "submit", "result", "status", "query", "process"), "api"),
    ("repro.store.fingerprint", None, ("fingerprint_for",),
     "store.fingerprint"),
    ("repro.store.db", "RunStore", ("__init__",), "store.open"),
    ("repro.store.db", "RunStore", ("register",), "store.register"),
    ("repro.store.db", "RunStore", ("claim", "claim_next", "release"),
     "store.claim"),
    ("repro.store.db", "RunStore", ("complete",), "store.complete"),
    ("repro.store.db", "RunStore", ("get", "lookup", "select", "find"),
     "store.read"),
    ("repro.store.db", "RunStore", ("meta_get", "meta_set", "meta_delete"),
     "store.meta"),
    ("repro.service.worker", None,
     ("worker_loop", "run_claimed_cell", "_stage_graph"), "worker"),
    ("repro.service.worker", "_Heartbeat", ("__enter__", "__exit__"),
     "worker"),
    ("repro.harness.shm", "SharedGraphRegistry", ("publish",),
     "shm.publish"),
    ("repro.harness.shm", "SharedGraphRegistry", ("attach",), "shm.attach"),
    ("repro.harness.shm", "SharedGraphRegistry", ("release", "unlink_all"),
     "shm.unlink"),
    ("repro.streaming", "IncrementalLD", ("__init__",), "streaming.init"),
    ("repro.streaming", "IncrementalLD", ("apply",), "streaming.apply"),
)

#: The matching driver is held by the algorithm registry, not looked up
#: by name, so its registry entry is patched.
DRIVERS = ("ld_gpu",)

ROOT = "op"
SETUP = "setup"


class Tracer:
    """Patch, record, restore.  ``op`` is the id spans are filed under;
    ``None`` records nothing (output checks run untraced)."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.op: Any = None
        self._stack: list[int] = []
        self._main = threading.main_thread().ident
        self._patches: list[tuple[Any, str, Any, Callable]] = []

    # -------------------------------------------------------------- #
    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, main = self.spans, self._stack, self._main
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None or ident() != main:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        # Registry entries are frozen dataclasses.
        setter = setattr if isinstance(owner, (type, types.ModuleType)) \
            else object.__setattr__
        old = owner.__dict__[attr]
        setter(owner, attr, new)
        self._patches.append((owner, attr, old, setter))

    def install(self) -> None:
        for mod_name, cls_name, attrs, span in TARGETS:
            mod = importlib.import_module(mod_name)
            owner = getattr(mod, cls_name) if cls_name else mod
            for attr in attrs:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, span))
                else:
                    new = self._wrap(raw, span)
                self._patch(owner, attr, new)
        from repro.engine.spec import get_spec

        for algo in DRIVERS:
            spec = get_spec(algo)
            self._patch(spec, "fn", self._wrap(spec.fn, "matching.driver"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old, setter = self._patches.pop()
            setter(owner, attr, old)

    # -------------------------------------------------------------- #
    def begin(self, op: Any, root: str = ROOT) -> None:
        """Open the benchmark's own root span for one op (or set-up)."""
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append([root, time.perf_counter(), 0.0, -1, op])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self.op = None

    # -------------------------------------------------------------- #
    def summary(self, ops: set) -> dict[str, tuple[float, float, int]]:
        """``span name -> (self seconds, inclusive seconds, calls)``
        summed over the spans filed under ``ops``.  Inclusive seconds
        and calls count only entries into a layer from outside it, so
        a layer calling itself is not counted twice."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[float, float, int]] = {}
        for i, (name, start, end, parent, op) in enumerate(spans):
            if op not in ops:
                continue
            dur = end - start
            s, inc, c = out.get(name, (0.0, 0.0, 0))
            if parent >= 0 and spans[parent][0] == name:
                out[name] = (s + dur - child[i], inc, c)
            else:
                out[name] = (s + dur - child[i], inc + dur, c + 1)
        return out

    def write(self, path: Path) -> None:
        """Write the spans out as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")
