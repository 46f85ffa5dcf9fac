"""Tests of the benchmark's own checks and failure accounting.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import workloads  # noqa: E402
from probe import probe  # noqa: E402


class _NoPause:
    """A set-up stopwatch that measures nothing."""

    def paused(self):
        from contextlib import nullcontext

        return nullcontext()

    def lap(self):
        pass


class _CorruptMate(workloads.Analogs):
    """Analogs whose ops hand back a mate with one pair unmatched."""

    def run_op(self, op):
        rec = super().run_op(op)
        mate = rec.result.mate
        v = int(np.flatnonzero(mate >= 0)[0])
        u = int(mate[v])
        mate[v] = mate[u] = -1
        return rec


def test_corrupted_mate_counts_as_failure(tmp_path):
    wl = _CorruptMate(0, 0.1, tmp_path, graphs=("mouse_gene",))
    wl.setup(_NoPause())
    wl.prepare_checks()
    phase = child.timed_phase(wl, 0.05, probe, min_ops=3)
    assert len(phase["lat"]) >= 3
    assert phase["failed"] == list(range(len(phase["lat"])))
    assert all("differ from ld_seq" in r for r in phase["reasons"])
    attempted, failed, _ = child.tally([phase], None, [])
    assert (attempted, failed) == (len(phase["lat"]) + 1,
                                   len(phase["lat"]))


def test_intact_mate_passes(tmp_path):
    wl = workloads.Analogs(0, 0.1, tmp_path, graphs=("mouse_gene",))
    wl.setup(_NoPause())
    wl.prepare_checks()
    phase = child.timed_phase(wl, 0.05, probe, min_ops=3)
    assert phase["failed"] == []
    assert wl.modeled_s(phase["first_cycle"]) > 0


@pytest.fixture
def jobs(tmp_path):
    wl = workloads.Jobs(3, 0.1, tmp_path)
    wl.setup(_NoPause())
    wl.prepare_checks()
    op = wl.next_op()
    assert wl.check(op, wl.run_op(op)) is None
    return wl


def test_leaked_lease_counts_as_failure(jobs):
    import repro.api as api
    from repro.store.db import RunStore

    phase = child.timed_phase(jobs, 0.05, probe, min_ops=2)
    assert phase["failed"] == []
    assert jobs.finish() == []
    # A job claimed by a worker that never completes it.
    fp = api.submit("ld_gpu", dataset=jobs.dataset, quality=True,
                    devices=2, seed=99, store=jobs.store)
    with RunStore(jobs.store) as store:
        assert store.claim(fp)
    final = jobs.finish()
    assert final == ["1 job(s) left leased"]
    attempted, failed, reasons = child.tally([phase], None, final)
    assert failed == 1 and reasons[-1] == final[0]


def test_resubmits_are_served_not_rerun(jobs):
    phase = child.timed_phase(jobs, 0.05, probe, min_ops=2)
    counts = jobs.layer_counts(phase["first_cycle"])
    assert counts["store.hit_ratio"] == pytest.approx(
        workloads.JOBS_RESUBMITS / workloads.JOBS_GRID)
    assert counts["worker.cells"] == \
        workloads.JOBS_GRID - workloads.JOBS_RESUBMITS


def test_tracer_restores_every_patch():
    import importlib

    import repro.api as api
    from repro.engine.spec import get_spec
    from repro.matching.pointer_index import PointerIndex
    from tracer import Tracer

    ld_gpu_mod = importlib.import_module("repro.matching.ld_gpu")
    before = (api.run, ld_gpu_mod.allreduce_max,
              PointerIndex.__dict__["point"], get_spec("ld_gpu").fn)
    t = Tracer()
    t.install()
    assert api.run is not before[0]
    t.uninstall()
    after = (api.run, ld_gpu_mod.allreduce_max,
             PointerIndex.__dict__["point"], get_spec("ld_gpu").fn)
    assert after == before
