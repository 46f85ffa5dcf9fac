"""One workload process: set up, run the timed closed loop, check.

``run.py`` starts this module in a fresh interpreter per measurement
(see there for the environment it sets).  The last line of its
standard output is one JSON document for ``run.py`` to aggregate.

Roles:

* ``setup`` -- measure set-up only (import, graph build, engine or
  store construction, one warm-up op) and exit;
* ``main`` -- set up, then the timed phase and every output check.

With ``--trace 1`` the main role runs the op loop twice on the same
process: an untraced half and a traced half, so the tracer's overhead
is measured, not assumed.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

#: Probes are taken after each block of ops at least this long, so
#: short ops are normalised by a nearby probe without a probe per op.
BLOCK_S = 0.06
#: Probes taken at each set-up lap; their median is the lap's reference.
LAP_PROBES = 3


class Stopwatch:
    """Set-up time since ``T0`` in laps, minus the intervals paused.

    Each lap (import, graph build, engine or store construction,
    warm-up op) is normalised by the mean of the probe references taken
    just before and just after it, like the timed ops."""

    def __init__(self, start: float, probe, nominal: float) -> None:
        self._probe = probe
        self._nominal = nominal
        self._mark = start
        self._ref: float | None = None
        self.raw = 0.0
        self.norm = 0.0
        self.refs: list[float] = []

    @contextmanager
    def paused(self):
        t = time.perf_counter()
        try:
            yield
        finally:
            self._mark += time.perf_counter() - t

    def lap(self) -> None:
        """Close the current lap (probing is not charged to set-up)."""
        dt = time.perf_counter() - self._mark
        ref = statistics.median(self._probe() for _ in range(LAP_PROBES))
        before = ref if self._ref is None else self._ref
        self.raw += dt
        self.norm += dt * 2.0 * self._nominal / (before + ref)
        self.refs.append(ref)
        self._ref = ref
        self._mark = time.perf_counter()


def quantile(xs: list[float], q: float) -> float:
    """Nearest-rank quantile (p90 is a value that was measured)."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def timed_phase(wl, seconds: float, probe, tracer=None,
                min_ops: int = 0) -> dict:
    """Run ops in a closed loop for ``seconds`` (and at least
    ``min_ops`` and one full cycle); check each op outside its timed
    window.  Returns raw latencies, block probe references, failures
    and the first cycle's ``(op, output)`` pairs."""
    wl.begin_timed()
    need = max(min_ops, wl.cycle_len)
    lat: list[float] = []
    block: list[int] = []
    probes = [probe()]
    failed: list[int] = []
    reasons: list[str] = []
    first_cycle: list[tuple] = []
    deadline = time.perf_counter() + seconds
    while True:
        spent = 0.0
        while spent < BLOCK_S:
            op = wl.next_op()
            i = len(lat)
            if tracer is not None:
                tracer.begin(i)
            t = time.perf_counter()
            try:
                out, err = wl.run_op(op), None
            except Exception as exc:  # a failed op, counted below
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.end()
            lat.append(dt)
            block.append(len(probes) - 1)
            spent += dt
            if err is None:
                try:
                    err = wl.check(op, out)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                failed.append(i)
                reasons.append(err)
            if len(first_cycle) < wl.cycle_len:
                first_cycle.append((op, out))
            if time.perf_counter() >= deadline and len(lat) >= need:
                break
        probes.append(probe())
        if time.perf_counter() >= deadline and len(lat) >= need:
            break
    return {"lat": lat, "block": block, "probes": probes,
            "failed": failed, "reasons": reasons,
            "first_cycle": first_cycle}


def normalised(phase: dict, nominal: float) -> list[float]:
    """Each op's seconds scaled by nominal / its block's probe
    reference: the mean of the probes just before and after the block
    (a wider window tracks the machine's fast swings worse)."""
    probes = phase["probes"]
    return [t * 2.0 * nominal / (probes[b] + probes[b + 1])
            for t, b in zip(phase["lat"], phase["block"])]


def latency_summary(lat: list[float], ok_ops: int) -> dict:
    return {"latency_p50_s": statistics.median(lat),
            "latency_p90_s": quantile(lat, 0.9),
            "ops_per_s": ok_ops / sum(lat)}


def tally(phases: list[dict], warm_err: str | None, final: list[str]
          ) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` over the warm-up op and every
    timed op.  A failed end-of-run check (a leaked lease, a wrong final
    mate) fails the last op, which left the run in that state."""
    attempted = 1 + sum(len(p["lat"]) for p in phases)
    failed = sum(len(p["failed"]) for p in phases)
    reasons = [r for p in phases for r in p["reasons"]]
    if warm_err is not None:
        failed += 1
        reasons.insert(0, warm_err)
    if final:
        reasons += final
        last = phases[-1]
        if not last["failed"] or last["failed"][-1] != len(last["lat"]) - 1:
            failed += 1
    return attempted, failed, reasons


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, wl, traced: dict, untraced_norm: list[float],
                  traced_norm: list[float], probe_ref: float,
                  nominal: float) -> dict[str, float]:
    """The per-layer metrics of one traced run (see design.json)."""
    scale = nominal / probe_ref
    n = len(traced["lat"])
    ops = set(range(n))
    cycle = set(range(len(traced["first_cycle"])))
    times = tracer.summary(ops)
    calls = tracer.summary(cycle)
    setup = tracer.summary({"setup"})
    nc = max(1, len(cycle))

    def per_op_s(*spans: str) -> float:
        return sum(times.get(s, (0.0, 0.0, 0))[0] for s in spans) \
            * scale / n

    def per_op_calls(span: str) -> float:
        return calls.get(span, (0.0, 0.0, 0))[2] / nc

    m: dict[str, float] = {
        "graph.build_s": setup.get("graph.build", (0, 0.0, 0))[1] * scale,
        "graph.build_calls": float(setup.get("graph.build", (0, 0, 0))[2]),
        "graph.overlay_s": per_op_s("graph.overlay"),
        "graph.overlay_calls": per_op_calls("graph.overlay"),
        "partition.plan_s": per_op_s("partition.plan"),
        "pointer_index.build_s": per_op_s("pointer_index.build"),
        "pointer_index.builds": per_op_calls("pointer_index.build"),
        "pointer_index.point_s": per_op_s("pointer_index.point"),
        "pointer_index.point_calls": per_op_calls("pointer_index.point"),
        "mutual_index.find_pairs_s": per_op_s("mutual_index.find_pairs"),
        "mutual_index.calls": per_op_calls("mutual_index.find_pairs"),
        "matching.driver_self_s": per_op_s("matching.driver"),
        "gpusim.cost_model_s": per_op_s("gpusim.cost_model"),
        "gpusim.cost_calls": per_op_calls("gpusim.cost_model"),
        "comm.allreduce_s": per_op_s("comm.allreduce"),
        "comm.allreduce_calls": per_op_calls("comm.allreduce"),
        "engine.execute_self_s": per_op_s("engine.execute"),
        "engine.provenance_s": per_op_s("engine.provenance"),
        "engine.record_json_s": per_op_s("engine.record_json"),
        "api.self_s": per_op_s("api"),
        "store.fingerprint_s": per_op_s("store.fingerprint"),
        "store.register_s": per_op_s("store.register"),
        "store.claim_s": per_op_s("store.claim"),
        "store.complete_s": per_op_s("store.complete"),
        "store.read_s": per_op_s("store.read", "store.open"),
        "store.meta_s": per_op_s("store.meta"),
        "store.instances": per_op_calls("store.open"),
        "worker.self_s": per_op_s("worker"),
        "shm.publish_s": per_op_s("shm.publish"),
        "shm.attach_s": per_op_s("shm.attach"),
        "shm.unlink_s": per_op_s("shm.unlink"),
        "shm.segments": per_op_calls("shm.publish"),
        "streaming.init_s":
            setup.get("streaming.init", (0, 0.0, 0))[1] * scale,
        "streaming.apply_self_s": per_op_s("streaming.apply"),
    }
    counts = {
        "matching.rounds": 0.0, "matching.entries_scanned": 0.0,
        "matching.useful_ratio": 0.0, "gpusim.pointing_s": 0.0,
        "gpusim.matching_s": 0.0, "gpusim.transfer_s": 0.0,
        "comm.modeled_s": 0.0, "store.hit_ratio": 0.0,
        "worker.cells": 0.0, "streaming.affected_vertices": 0.0,
        "streaming.host_entries_scanned": 0.0, "streaming.rounds": 0.0,
        "streaming.repairs": 0.0, "streaming.work_vs_recompute": 0.0,
    }
    counts.update(wl.layer_counts(traced["first_cycle"]))
    m.update(counts)
    total = sum(traced["lat"])
    m["trace.unattributed_frac"] = times.get("op", (0.0, 0, 0))[0] / total
    m["trace.overhead_frac"] = (statistics.median(traced_norm)
                                / statistics.median(untraced_norm) - 1.0)
    m["probe.ref_s"] = probe_ref
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), default="main")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--nominal", type=float, required=True)
    ap.add_argument("--min-ops", type=int, default=0)
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args(argv)

    import numpy as np  # noqa: F401  (the probe needs it; so does repro)

    from probe import probe

    watch = Stopwatch(T0, probe, args.nominal)
    watch.lap()
    import repro

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {src}")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.seconds, args.workdir)
    tracer = None
    if args.trace:
        from tracer import SETUP, Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin(SETUP, root=SETUP)
    wl.setup(watch)
    watch.lap()
    warm_op = wl.next_op()
    warm_out, warm_err = None, None
    try:
        warm_out = wl.run_op(warm_op)
    except Exception as exc:  # counted as a failed op
        warm_err = f"warm-up {type(exc).__name__}: {exc}"
    watch.lap()
    if tracer is not None:
        tracer.end()
        tracer.uninstall()
    doc: dict = {"setup_raw_s": watch.raw, "setup_s": watch.norm,
                 "setup_probe_s": statistics.median(watch.refs)}
    if args.role == "setup":
        print(json.dumps(doc))
        return 0 if warm_err is None else 1

    wl.prepare_checks()
    if warm_err is None:
        try:
            warm_err = wl.check(warm_op, warm_out)
        except Exception as exc:
            warm_err = f"warm-up check raised {type(exc).__name__}: {exc}"
    del warm_out
    gc.collect()
    if tracer is None:
        phase = timed_phase(wl, args.seconds, probe, min_ops=args.min_ops)
        phases = [phase]
    else:
        half = args.seconds / 2.0
        untraced = timed_phase(wl, half, probe)
        gc.collect()
        tracer.install()
        traced = timed_phase(wl, half, probe, tracer=tracer)
        tracer.uninstall()
        phases = [untraced, traced]
    final = wl.finish()

    attempted, failed, reasons = tally(phases, warm_err, final)
    probes = [x for p in phases for x in p["probes"]]
    doc.update({
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:20],
        "samples": len(phases[0]["lat"]),
        "probe_ref_s": statistics.median(probes),
        "peak_rss_mb": peak_rss_mb(),
    })
    norm = normalised(phases[0], args.nominal)
    ok = len(phases[0]["lat"]) - len(phases[0]["failed"])
    doc["normalised"] = latency_summary(norm, ok)
    doc["raw"] = latency_summary(phases[0]["lat"], ok)
    doc["modeled_s"] = wl.modeled_s(phases[0]["first_cycle"])
    if tracer is not None:
        traced_norm = normalised(phases[1], args.nominal)
        doc["layers"] = layer_metrics(
            tracer, wl, phases[1], norm, traced_norm,
            statistics.median(phases[1]["probes"]), args.nominal)
        doc["layers"]["host.raw_latency_p50_s"] = \
            statistics.median(phases[0]["lat"])
        if args.spans_out is not None:
            tracer.write(args.spans_out)
    _stop_resource_tracker()
    print(json.dumps(doc))
    return 0


def _stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for shared
    memory, so nothing this process started outlives it."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
