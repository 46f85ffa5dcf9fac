"""The benchmark's four workloads, driven through the public surfaces.

Each workload is one closed loop with one client.  Its life in a
workload process is:

1. ``setup(watch)`` -- the program work a user pays before the first
   op: imports, graph construction through repro's graph layer and
   engine or store construction, with ``watch.lap()`` between stages.
   The benchmark's own inputs (the update stream) are generated under
   ``watch.paused()`` so they are not charged to ``setup_s``;
2. one untimed warm-up op (``next_op()`` / ``run_op(op)``), still part
   of set-up;
3. ``prepare_checks()`` -- oracles for the output checks (not timed);
4. ``next_op()`` / ``run_op(op)`` -- the timed ops;
5. ``check(op, out)`` -- the op's output check, outside the timed
   window; returns ``None`` or the reason the op failed;
6. ``finish()`` -- end-of-run checks; returns failure reasons.

Every input comes from the seed: graph order, the update stream, job
seeds, replicates and resubmit picks.  The op mix of each workload stays
inside one cost class, so p50 and p90 describe the same kind of op.
``cycle_len`` ops make one deterministic cycle; ``modeled_s`` and the
traced counts are taken over the first timed cycle so they repeat
exactly from run to run.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Any

import numpy as np

#: Mid-size weighted analogs, 6-10 LD rounds per op.  The per-device
#: PointerIndex build dominates each op.
ANALOGS = ("Queen_4147", "mycielskian18", "HV15R", "com-Orkut", "kmer_U1a")

#: Unit-weight copies of three of the same analogs: 100-400 LD rounds,
#: so pointing, matching, the kernel-cost model and the allreduce
#: dominate instead of the index build.
UNIT_WEIGHT = ("Queen_4147", "HV15R", "com-Orkut")

DEVICES = 4

#: GAP-kron analog: the only workload that writes the graph.
STREAM_DATASET = "GAP-kron"
STREAM_BATCH_SIZE = 32
#: Batches between full ``ld_seq`` checkpoint checks.
STREAM_CYCLE = 200
#: Upper bound on batches a run can apply per second (stream sizing).
STREAM_MAX_BATCH_RATE = 250

#: Quality instance the jobs grid runs on (512 vertices).
JOBS_DATASET = "GAP-kron"
JOBS_DEVICES = 2
JOBS_GRID = 8
JOBS_RESUBMITS = 2  # a quarter of each grid is already done


def _oracle(graph) -> np.ndarray:
    """From-scratch reference mate array (the segment engine)."""
    from repro.matching.ld_seq import ld_seq

    return ld_seq(graph, engine="segment", collect_stats=False).mate


def check_mate(mate: Any, oracle: np.ndarray) -> str | None:
    """``None`` when ``mate`` equals the oracle, else the reason."""
    if mate is None:
        return "no mate array"
    mate = np.asarray(mate)
    if mate.shape != oracle.shape:
        return f"mate shape {mate.shape} != oracle {oracle.shape}"
    bad = int(np.count_nonzero(mate != oracle))
    return f"{bad} mate entries differ from ld_seq" if bad else None


# ------------------------------------------------------------------ #
# unit-weight graph builders (module-level so the engine can name them)
# ------------------------------------------------------------------ #


def _unit_copy(name: str):
    from repro.harness.datasets import load_dataset

    g = load_dataset(name)
    return g.reweighted(np.ones_like(g.weights))


@functools.cache
def unit_queen_4147():
    return _unit_copy("Queen_4147")


@functools.cache
def unit_hv15r():
    return _unit_copy("HV15R")


@functools.cache
def unit_com_orkut():
    return _unit_copy("com-Orkut")


UNIT_BUILDERS = {
    "Queen_4147": unit_queen_4147,
    "HV15R": unit_hv15r,
    "com-Orkut": unit_com_orkut,
}


# ------------------------------------------------------------------ #
# workloads
# ------------------------------------------------------------------ #


class Workload:
    """Common shape; see the module docstring for the life cycle."""

    name = "?"
    cycle_len = 1

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.seconds = seconds
        self.workdir = Path(workdir)

    def setup(self, watch) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        pass

    def begin_timed(self) -> None:
        """Called before each timed phase: start a fresh cycle."""

    def next_op(self) -> Any:
        raise NotImplementedError

    def run_op(self, op: Any) -> Any:
        raise NotImplementedError

    def check(self, op: Any, out: Any) -> str | None:
        raise NotImplementedError

    def modeled_s(self, first_cycle: list[tuple[Any, Any]]) -> float:
        raise NotImplementedError

    def layer_counts(self, first_cycle: list[tuple[Any, Any]]
                     ) -> dict[str, float]:
        """Per-op counts read from the ops' own outputs."""
        return {}

    def finish(self) -> list[str]:
        return []


def _record_counts(records: list) -> dict[str, float]:
    """Matching/cost-model counts per op from ld_gpu RunRecords."""
    records = [r for r in records if r is not None and r.ok]
    n = len(records)
    if n == 0:
        return {}
    scanned = sum(int(r.extra.get("host_entries_scanned", 0))
                  for r in records)
    matched = sum(2 * int(r.matched_edges) for r in records)
    tot: dict[str, float] = {}
    for r in records:
        for k, v in (r.timeline_totals or {}).items():
            tot[k] = tot.get(k, 0.0) + float(v)
    return {
        "matching.rounds": sum(int(r.iterations) for r in records) / n,
        "matching.entries_scanned": scanned / n,
        "matching.useful_ratio": matched / scanned if scanned else 0.0,
        "gpusim.pointing_s": tot.get("pointing", 0.0) / n,
        "gpusim.matching_s": tot.get("matching", 0.0) / n,
        "gpusim.transfer_s": tot.get("batch_transfer", 0.0) / n,
        "comm.modeled_s": (tot.get("allreduce_pointers", 0.0)
                           + tot.get("allreduce_mate", 0.0)) / n,
    }


def _sim_time(records: list) -> float:
    """Summed modeled seconds of the ok records (failed ops count as
    failures, not as modeled time)."""
    return float(sum(r.sim_time for r in records
                     if r is not None and r.ok and r.sim_time is not None))


class _LdGpuLoop(Workload):
    """``api.run("ld_gpu", ...)`` cycling a seeded order of graphs."""

    graphs: tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float, workdir: Path,
                 graphs: tuple[str, ...] | None = None) -> None:
        super().__init__(seed, seconds, workdir)
        if graphs is not None:
            self.graphs = tuple(graphs)
        self.cycle_len = len(self.graphs)
        self._pending: list[str] = []
        self._oracles: dict[str, np.ndarray] = {}

    def begin_timed(self) -> None:
        self._pending = []

    def next_op(self) -> str:
        if not self._pending:
            self._pending = [self.graphs[i] for i in
                             self.rng.permutation(len(self.graphs))]
        return self._pending.pop()

    def _graph(self, name: str):
        raise NotImplementedError

    def prepare_checks(self) -> None:
        for name in self.graphs:
            self._oracles[name] = _oracle(self._graph(name))

    def check(self, op: str, out: Any) -> str | None:
        if not out.ok:
            return f"error record: {out.error}"
        return check_mate(out.result.mate, self._oracles[op])

    def modeled_s(self, first_cycle) -> float:
        return _sim_time([rec for _, rec in first_cycle])

    def layer_counts(self, first_cycle) -> dict[str, float]:
        return _record_counts([rec for _, rec in first_cycle])


class Analogs(_LdGpuLoop):
    name = "analogs"
    graphs = ANALOGS

    def setup(self, watch) -> None:
        import repro.api  # noqa: F401
        from repro.harness.datasets import load_dataset

        watch.lap()
        for name in self.graphs:
            load_dataset(name)

    def _graph(self, name: str):
        from repro.harness.datasets import load_dataset

        return load_dataset(name)

    def run_op(self, op: str):
        import repro.api as api

        return api.run("ld_gpu", dataset=op, devices=DEVICES)


class UnitWeight(_LdGpuLoop):
    name = "unit-weight"
    graphs = UNIT_WEIGHT

    def setup(self, watch) -> None:
        import repro.api  # noqa: F401
        from repro.harness.datasets import scaled_platform

        watch.lap()
        # Same memory-scaled platform as the weighted analog, so the
        # two workloads differ only in the weights.
        self._platforms = {name: scaled_platform(name)
                           for name in self.graphs}
        for name in self.graphs:
            UNIT_BUILDERS[name]()

    def _graph(self, name: str):
        return UNIT_BUILDERS[name]()

    def run_op(self, op: str):
        import repro.api as api

        return api.run("ld_gpu", builder=UNIT_BUILDERS[op],
                       platform=self._platforms[op], devices=DEVICES)


class Stream(Workload):
    """``IncrementalLD.apply`` over a seeded mixed update stream."""

    name = "stream"
    cycle_len = STREAM_CYCLE

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        super().__init__(seed, seconds, workdir)
        self.dataset = STREAM_DATASET
        self.num_batches = 2 + STREAM_CYCLE + int(
            seconds * STREAM_MAX_BATCH_RATE)
        self._stream_seed = int(self.rng.integers(1 << 31))
        self._applied = 0  # batches applied, the warm-up included
        self._edges_after: dict[int, int] = {}  # id(batch) -> m
        self._modeled = 0.0
        self._checked_at = -1

    def setup(self, watch) -> None:
        from repro.harness.datasets import load_dataset
        from repro.streaming import EdgeStream, IncrementalLD

        watch.lap()
        base = load_dataset(self.dataset)
        watch.lap()
        self.engine = IncrementalLD(base)
        self._base = base
        with watch.paused():
            stream = EdgeStream.generate(
                base, num_batches=self.num_batches,
                batch_size=STREAM_BATCH_SIZE, seed=self._stream_seed)
        self._batches = iter(stream)

    def next_op(self):
        batch = next(self._batches, None)
        if batch is None:
            raise RuntimeError("update stream exhausted; raise "
                               "STREAM_MAX_BATCH_RATE")
        return batch

    def run_op(self, batch):
        return self.engine.apply(batch)

    def prepare_checks(self) -> None:
        from repro.harness.datasets import scaled_platform
        from repro.matching.ld_gpu import ld_gpu

        # Modeled LD-GPU seconds of matching the base graph from
        # scratch: the recompute each incremental batch replaces.  A
        # mutated snapshot would need one LD round more or less
        # depending on the seed; the base graph is the same for all.
        res = ld_gpu(self._base, platform=scaled_platform(
            self.dataset, graph=self._base), num_devices=DEVICES,
            engine="segment")
        self._modeled = float(res.sim_time)

    def _checkpoint(self) -> str | None:
        self._checked_at = self._applied
        return check_mate(self.engine.mate,
                          _oracle(self.engine.snapshot()))

    def check(self, batch, out) -> str | None:
        self._applied += 1
        self._edges_after[id(batch)] = self.engine.graph.num_edges
        if out.num_ops != batch.num_ops:
            return f"applied {out.num_ops} of {batch.num_ops} ops"
        if self._applied % self.cycle_len == 0:
            return self._checkpoint()
        return None

    def finish(self) -> list[str]:
        if self._checked_at == self._applied:
            return []
        bad = self._checkpoint()
        return [f"final mate: {bad}"] if bad else []

    def modeled_s(self, first_cycle) -> float:
        return self._modeled

    def layer_counts(self, first_cycle) -> dict[str, float]:
        done = [(b, out) for b, out in first_cycle if out is not None]
        n = len(done)
        if n == 0:
            return {}
        res = [out for _, out in done]
        scanned = sum(r.host_entries_scanned for r in res)
        # Recompute floor: any from-scratch ld_seq reads every directed
        # adjacency entry at least once (2m after each batch).
        floor = sum(2 * self._edges_after[id(b)] for b, _ in done)
        return {
            "streaming.affected_vertices":
                sum(r.affected_vertices for r in res) / n,
            "streaming.host_entries_scanned": scanned / n,
            "streaming.rounds": sum(r.rounds for r in res) / n,
            "streaming.repairs": sum(r.repairs for r in res) / n,
            "streaming.work_vs_recompute": scanned / floor if floor
            else 0.0,
        }


class Jobs(Workload):
    """Submit a small grid to a store named by path, drain it with one
    in-process ``api.process``, and read every result back."""

    name = "jobs"
    cycle_len = 4

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        super().__init__(seed, seconds, workdir)
        self.dataset = JOBS_DATASET
        self.store = str(self.workdir / "jobs.db")
        self._replicate = 0
        self._done: list[tuple[dict, str, str]] = []  # (job, fp, json)
        self._oracle: tuple[float, int] | None = None

    def _job(self) -> dict:
        self._replicate += 1
        return {"seed": int(self.rng.integers(1 << 31)),
                "replicate": self._replicate}

    def setup(self, watch) -> None:
        import repro.api  # noqa: F401
        from repro.harness.datasets import quality_instance
        from repro.store.db import RunStore

        watch.lap()
        quality_instance(self.dataset)
        with RunStore(self.store) as store:
            store.counts()  # creates the database and its schema

    def next_op(self) -> list[tuple[dict, tuple | None]]:
        if len(self._done) < JOBS_RESUBMITS:  # the warm-up grid
            return [(self._job(), None) for _ in range(JOBS_GRID)]
        fresh = JOBS_GRID - JOBS_RESUBMITS
        grid: list[tuple[dict, tuple | None]] = [
            (self._job(), None) for _ in range(fresh)]
        picks = self.rng.choice(len(self._done), JOBS_RESUBMITS,
                                replace=False)
        grid += [(self._done[i][0], self._done[i]) for i in picks]
        order = self.rng.permutation(len(grid))
        return [grid[i] for i in order]

    def run_op(self, grid):
        import repro.api as api

        fps = [api.submit("ld_gpu", dataset=self.dataset, quality=True,
                          devices=JOBS_DEVICES, seed=job["seed"],
                          replicate=job["replicate"], store=self.store)
               for job, _ in grid]
        executed = api.process(store=self.store)
        records = [api.result(fp, store=self.store) for fp in fps]
        return fps, executed, records

    def prepare_checks(self) -> None:
        from repro.harness.datasets import quality_instance
        from repro.matching.ld_seq import ld_seq

        ref = ld_seq(quality_instance(self.dataset), engine="segment")
        self._oracle = (float(ref.weight), int(ref.num_matched_edges))

    def check(self, grid, out) -> str | None:
        fps, executed, records = out
        fresh = sum(1 for _, prev in grid if prev is None)
        if executed != fresh:
            return f"drained {executed} cells, expected {fresh}"
        for (job, prev), fp, rec in zip(grid, fps, records):
            if rec is None or not rec.ok:
                return f"job {fp} has no ok record"
            if (float(rec.weight), int(rec.matched_edges)) != \
                    self._oracle:
                return f"job {fp} result differs from ld_seq"
            text = rec.to_json()
            if prev is not None:
                if fp != prev[1]:
                    return "resubmit changed the fingerprint"
                if text != prev[2]:
                    return "resubmit served a different record"
            else:
                self._done.append((job, fp, text))
        return None

    def finish(self) -> list[str]:
        import repro.api as api
        from repro.harness.shm import SEGMENT_PREFIX, list_orphan_segments

        problems = []
        leased = api.query(state="leased", store=self.store)
        if leased:
            problems.append(f"{len(leased)} job(s) left leased")
        mine = f"{SEGMENT_PREFIX}{os.getpid()}_"
        left = [n for n, _ in list_orphan_segments()
                if n.startswith(mine)]
        if left:
            problems.append(f"{len(left)} shm segment(s) left: {left}")
        return problems

    def modeled_s(self, first_cycle) -> float:
        return _sim_time([rec for _, out in first_cycle if out is not None
                          for rec in out[2]])

    def layer_counts(self, first_cycle) -> dict[str, float]:
        outs = [out for _, out in first_cycle if out is not None]
        n = len(outs)
        if n == 0:
            return {}
        submitted = sum(len(fps) for fps, _, _ in outs)
        executed = sum(ex for _, ex, _ in outs)
        counts = _record_counts([rec for _, _, recs in outs
                                 for rec in recs])
        # Records are per job; the other counts are per op (per grid).
        per_grid = submitted / n
        for key in ("matching.rounds", "matching.entries_scanned",
                    "gpusim.pointing_s", "gpusim.matching_s",
                    "gpusim.transfer_s", "comm.modeled_s"):
            if key in counts:
                counts[key] *= per_grid
        counts["store.hit_ratio"] = 1.0 - executed / submitted
        counts["worker.cells"] = executed / n
        return counts


WORKLOADS = {w.name: w for w in (Analogs, UnitWeight, Stream, Jobs)}
