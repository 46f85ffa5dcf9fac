"""Pointer-index engine: bit-identity with the segment oracle.

The index engine must be indistinguishable from the segment arg-max in
every *result* quantity — mate array, matched weight, iteration count,
modeled ``edges_scanned`` — while shrinking only the *host* work it
reports through ``host_entries_scanned``.  These tests pit the engines
against each other across random graphs (plain and tie-prone), the
dataset generators under both weight schemes, and the LD-GPU
(devices, batches, partition) grid, plus unit coverage for cursor reuse,
engine resolution and the satellite fast paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from conftest import build_graph, random_graphs
from repro.graph.generators import (
    powerlaw_cluster_graph,
    queen_mesh,
    rmat_graph,
    uniform_random_graph,
)
from repro.graph.segments import gather_rows
from repro.matching import ld_gpu, ld_seq
from repro.matching.ld_seq import compute_pointers, find_mutual_pairs
from repro.matching.pointer_index import (
    DEFAULT_POINTING_ENGINE,
    HOST_SCAN_COUNTER,
    POINTING_ENGINE_ENV,
    MutualIndex,
    PointerIndex,
    resolve_pointing_engine,
)
from repro.matching.types import UNMATCHED


def tie_heavy(graph):
    """Integer weights from {1, 2, 3} keyed on the canonical edge id —
    symmetric by construction and dense with ties."""
    if graph.num_directed_edges == 0:
        return graph
    w = (graph.canonical_edge_ids() % 3 + 1).astype(np.float64)
    return graph.reweighted(w)


def assert_same_run(a, b):
    assert np.array_equal(a.mate, b.mate)
    assert a.iterations == b.iterations
    assert a.weight == b.weight
    sa = a.stats.get("edges_scanned")
    sb = b.stats.get("edges_scanned")
    if sa is not None or sb is not None:
        assert np.array_equal(sa, sb)


# ------------------------------------------------------------------ #
# engine resolution
# ------------------------------------------------------------------ #


def test_resolve_default(monkeypatch):
    monkeypatch.delenv(POINTING_ENGINE_ENV, raising=False)
    assert resolve_pointing_engine() == DEFAULT_POINTING_ENGINE
    assert resolve_pointing_engine("segment") == "segment"


def test_resolve_env(monkeypatch):
    monkeypatch.setenv(POINTING_ENGINE_ENV, "segment")
    assert resolve_pointing_engine() == "segment"
    # An explicit argument still wins over the environment.
    assert resolve_pointing_engine("index") == "index"


def test_resolve_unknown(monkeypatch):
    with pytest.raises(ValueError, match="unknown pointing engine"):
        resolve_pointing_engine("radix")
    monkeypatch.setenv(POINTING_ENGINE_ENV, "bogus")
    with pytest.raises(ValueError, match="unknown pointing engine"):
        resolve_pointing_engine()


def test_ld_seq_reports_engine(tie_graph):
    r = ld_seq(tie_graph, engine="index")
    assert r.stats["pointing_engine"] == "index"
    assert r.stats["host_entries_scanned"] >= 0
    r = ld_seq(tie_graph, engine="segment")
    assert r.stats["pointing_engine"] == "segment"


# ------------------------------------------------------------------ #
# randomized engine identity — ld_seq
# ------------------------------------------------------------------ #


@given(g=random_graphs())
def test_ld_seq_engines_identical_random(g):
    assert_same_run(ld_seq(g, engine="segment"), ld_seq(g, engine="index"))


@given(g=random_graphs(tie_prone=True))
def test_ld_seq_engines_identical_tie_prone(g):
    assert_same_run(ld_seq(g, engine="segment"), ld_seq(g, engine="index"))


@given(g=random_graphs(tie_prone=True))
def test_ld_seq_engines_identical_full_rescan(g):
    assert_same_run(ld_seq(g, engine="segment", full_rescan=True),
                    ld_seq(g, engine="index", full_rescan=True))


GENERATORS = [
    pytest.param(lambda: rmat_graph(7, 6, seed=3, name="rmat"),
                 id="rmat"),
    pytest.param(lambda: uniform_random_graph(150, 900, seed=4,
                                              name="urand"),
                 id="uniform"),
    pytest.param(lambda: powerlaw_cluster_graph(160, avg_degree=8.0,
                                                seed=5, name="plc"),
                 id="powerlaw"),
    pytest.param(lambda: queen_mesh(12, name="queen"), id="queen"),
]


@pytest.mark.parametrize("gen", GENERATORS)
@pytest.mark.parametrize("scheme", ["uniform", "ties"])
def test_ld_seq_engines_identical_generators(gen, scheme):
    g = gen()
    if scheme == "ties":
        g = tie_heavy(g)
    assert_same_run(ld_seq(g, engine="segment"), ld_seq(g, engine="index"))


# ------------------------------------------------------------------ #
# the graph-owned sorted order
# ------------------------------------------------------------------ #


def reference_order(g):
    """Per-row reference: each row's entries by ``(w, eid)`` descending."""
    eids = g.canonical_edge_ids()
    out = []
    for v in range(g.num_vertices):
        lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
        out.extend(sorted(range(lo, hi),
                          key=lambda k: (-g.weights[k], -eids[k])))
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("gen", GENERATORS)
@pytest.mark.parametrize("scheme", ["uniform", "ties"])
def test_sorted_order_matches_per_row_reference(gen, scheme):
    g = gen()
    if scheme == "ties":
        g = tie_heavy(g)
    order = g.sorted_order()
    assert order.dtype == np.int64
    assert np.array_equal(order, reference_order(g))


@given(g=random_graphs(tie_prone=True))
def test_sorted_order_matches_reference_tie_prone(g):
    assert np.array_equal(g.sorted_order(), reference_order(g))


def test_reweighted_copy_gets_its_own_order():
    """``reweighted`` shares ``indptr``/``indices`` with its source, so
    the order must be derived per graph, not per structure: running
    the index engine on the source first must not leak its order into
    the unit-weight copy."""
    g = rmat_graph(8, 6, seed=9, name="rmat")
    unit = g.reweighted(np.ones_like(g.weights))
    ld_gpu(g, num_devices=4, engine="index")
    assert unit.sorted_order() is not g.sorted_order()
    assert np.array_equal(unit.sorted_order(), reference_order(unit))
    assert not np.array_equal(unit.sorted_order(), g.sorted_order())
    rs = ld_gpu(unit, num_devices=4, engine="segment")
    ri = ld_gpu(unit, num_devices=4, engine="index")
    assert_same_run(rs, ri)
    assert rs.sim_time == ri.sim_time


# ------------------------------------------------------------------ #
# engine identity — ld_gpu across the configuration grid
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("devices,batches,partition", [
    (1, None, "edge"),
    (2, 1, "edge"),
    (2, 3, "edge"),
    (4, 2, "edge"),
    (3, 2, "vertex"),
])
def test_ld_gpu_engines_identical_grid(medium_graph, devices, batches,
                                       partition):
    kw = dict(num_devices=devices, num_batches=batches,
              partition=partition, force_streaming=batches is not None)
    rs = ld_gpu(medium_graph, engine="segment", **kw)
    ri = ld_gpu(medium_graph, engine="index", **kw)
    assert_same_run(rs, ri)
    assert rs.sim_time == ri.sim_time
    assert ri.stats["pointing_engine"] == "index"


@pytest.mark.parametrize("devices,batches", [(2, 2), (3, 1)])
def test_ld_gpu_engines_identical_ties(devices, batches):
    g = tie_heavy(rmat_graph(8, 6, seed=9, name="rmat-ties"))
    rs = ld_gpu(g, num_devices=devices, num_batches=batches,
                engine="segment")
    ri = ld_gpu(g, num_devices=devices, num_batches=batches,
                engine="index")
    assert_same_run(rs, ri)
    assert rs.sim_time == ri.sim_time


def test_ld_gpu_matches_ld_seq(medium_graph):
    seq = ld_seq(medium_graph, engine="index")
    gpu = ld_gpu(medium_graph, num_devices=4, num_batches=2,
                 engine="index")
    assert np.array_equal(seq.mate, gpu.mate)


# ------------------------------------------------------------------ #
# cursor mechanics
# ------------------------------------------------------------------ #


def _fresh_pointers(graph, mate, frontier):
    """Oracle: pointers computed from scratch by the segment engine."""
    pointer = np.full(graph.num_vertices, UNMATCHED, dtype=np.int64)
    compute_pointers(graph.indptr, graph.indices, graph.weights,
                     graph.canonical_edge_ids(), mate, pointer, frontier)
    return pointer


def test_cursors_persist_across_iterations(medium_graph):
    """A single index, reused round after round as ``mate`` fills in,
    stays identical to from-scratch segment pointing every round."""
    g = medium_graph
    idx = PointerIndex(g.indptr, g.indices[g.sorted_order()])
    rng = np.random.default_rng(0)
    mate = np.full(g.num_vertices, UNMATCHED, dtype=np.int64)
    pointer = np.full(g.num_vertices, UNMATCHED, dtype=np.int64)
    for _ in range(6):
        frontier = np.nonzero(mate == UNMATCHED)[0]
        idx.point(mate, pointer, frontier)
        expect = _fresh_pointers(g, mate, frontier)
        assert np.array_equal(pointer[frontier], expect[frontier])
        # Mark a random subset of pointed-at pairs matched (monotone
        # availability, as in a real run).
        live = frontier[pointer[frontier] != UNMATCHED]
        pick = live[rng.random(len(live)) < 0.3]
        mate[pick] = pointer[pick]
        mate[pointer[pick]] = pick
    assert np.all(idx.cursor >= g.indptr[:-1])
    assert np.all(idx.cursor <= g.indptr[1:])


def test_point_modeled_count_is_frontier_degrees(triangle):
    g = triangle
    idx = PointerIndex(g.indptr, g.indices[g.sorted_order()])
    mate = np.full(3, UNMATCHED, dtype=np.int64)
    pointer = np.full(3, UNMATCHED, dtype=np.int64)
    frontier = np.arange(3)
    modeled = idx.point(mate, pointer, frontier)
    assert modeled == int(g.degrees.sum())
    assert idx.last_host_scanned == 3  # first live entry of each row
    assert idx.host_entries_scanned == 3


def test_empty_frontier_and_empty_graph():
    g = build_graph(4, [])
    idx = PointerIndex(g.indptr, g.indices[g.sorted_order()])
    mate = np.full(4, UNMATCHED, dtype=np.int64)
    pointer = np.full(4, UNMATCHED, dtype=np.int64)
    assert idx.point(mate, pointer, np.arange(4)) == 0
    assert idx.point(mate, pointer, np.array([], dtype=np.int64)) == 0
    assert np.all(pointer == UNMATCHED)
    assert idx.host_entries_scanned == 0


def test_host_scanned_amortized(medium_graph):
    """Across a whole run the index engine examines each adjacency
    entry at most once past its first visit: pointing work is bounded
    by m + total frontier size, matching work by the total number of
    pointer-value changes (<= m + n: each vertex's pointer only walks
    down its sorted row before going UNMATCHED) — both far below the
    modeled O(m x rounds) / O(n x rounds) full sweeps."""
    r = ld_seq(medium_graph, engine="index")
    host = r.stats["host_entries_scanned"]
    pointing = r.stats["host_entries_scanned_pointing"]
    matching = r.stats["host_entries_scanned_matching"]
    modeled = int(np.sum(r.stats["edges_scanned"]))
    m = medium_graph.num_directed_edges
    n = medium_graph.num_vertices
    assert host == pointing + matching
    assert 0 < pointing <= modeled
    assert pointing <= m + n * r.iterations
    assert 0 < matching <= m + 2 * n
    assert matching < n * r.iterations  # the oracle's matching bill


def test_matching_phase_breakdown_vs_oracle(medium_graph):
    """The segment oracle charges its full sweeps honestly — n probes
    per round in the matching phase — while producing the identical
    result; the breakdown keys expose exactly that gap."""
    ri = ld_seq(medium_graph, engine="index")
    rs = ld_seq(medium_graph, engine="segment")
    assert_same_run(ri, rs)
    n = medium_graph.num_vertices
    assert rs.stats["host_entries_scanned_matching"] \
        == n * rs.iterations
    assert ri.stats["host_entries_scanned_matching"] \
        < rs.stats["host_entries_scanned_matching"]
    assert rs.stats["host_entries_scanned"] \
        == rs.stats["host_entries_scanned_pointing"] \
        + rs.stats["host_entries_scanned_matching"]


def _lockstep_rounds(g, full_rescan=False, max_rounds=400):
    """Drive Algorithm 1's loop with the full-scan matching oracle and
    a :class:`MutualIndex` side by side, yielding both pair sets every
    round — the oracle-identity harness for the delta engine."""
    n = g.num_vertices
    eids = g.canonical_edge_ids()
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    pointer = np.full(n, UNMATCHED, dtype=np.int64)
    mutual = MutualIndex(n)
    frontier = np.arange(n, dtype=np.int64)
    for _ in range(max_rounds):
        compute_pointers(g.indptr, g.indices, g.weights, eids,
                         mate, pointer, frontier)
        oracle = find_mutual_pairs(pointer, None)
        delta = mutual.find_pairs(pointer, frontier)
        yield oracle, delta, mutual.last_host_scanned, len(frontier)
        lo, hi = oracle
        if len(lo) == 0:
            return
        mate[lo] = hi
        mate[hi] = lo
        pointer[lo] = UNMATCHED
        pointer[hi] = UNMATCHED
        if full_rescan:
            frontier = np.nonzero(mate == UNMATCHED)[0]
        else:
            live = np.nonzero((mate == UNMATCHED) & (pointer >= 0))[0]
            frontier = live[mate[pointer[live]] != UNMATCHED]


@pytest.mark.parametrize("full_rescan", [False, True])
def test_mutual_index_lockstep_with_oracle(full_rescan):
    """Round by round on a tie-heavy graph, the delta engine reports
    the oracle's exact pair rows while probing only changed pointers."""
    g = tie_heavy(rmat_graph(7, 6, seed=11, name="lockstep"))
    rounds = 0
    for oracle, delta, probed, fsize in _lockstep_rounds(
            g, full_rescan=full_rescan):
        assert np.array_equal(oracle[0], delta[0])
        assert np.array_equal(oracle[1], delta[1])
        assert probed <= fsize  # never more than the re-pointed set
        rounds += 1
    assert rounds > 1


@given(g=random_graphs(tie_prone=True))
def test_mutual_index_lockstep_random(g):
    for oracle, delta, _, _ in _lockstep_rounds(g):
        assert np.array_equal(oracle[0], delta[0])
        assert np.array_equal(oracle[1], delta[1])


def test_mutual_index_none_diffs_whole_array():
    """``candidates=None`` self-detects changes against ``prev``."""
    pointer = np.array([1, 0, UNMATCHED, UNMATCHED], dtype=np.int64)
    mutual = MutualIndex(4)
    lo, hi = mutual.find_pairs(pointer, None)
    assert np.array_equal(lo, [0]) and np.array_equal(hi, [1])
    assert mutual.last_host_scanned == 2  # the two changed entries
    # Nothing changed: nothing probed, nothing (re-)reported.
    lo, hi = mutual.find_pairs(pointer, None)
    assert len(lo) == 0 and mutual.last_host_scanned == 0
    assert mutual.host_entries_scanned == 2


# ------------------------------------------------------------------ #
# telemetry
# ------------------------------------------------------------------ #


def test_host_scan_counter_emitted(tie_graph):
    from repro.telemetry.registry import MetricsRegistry
    from repro.telemetry.spans import record_into

    reg = MetricsRegistry()
    with record_into(reg):
        r = ld_seq(tie_graph, engine="index")
    child = reg.counter(HOST_SCAN_COUNTER, algorithm="ld_seq",
                        engine="index")
    assert child.value == r.stats["host_entries_scanned"] > 0

    reg = MetricsRegistry()
    with record_into(reg):
        ld_gpu(tie_graph, num_devices=2, engine="segment")
    fam = reg.snapshot()  # smoke: snapshot renders without error
    assert fam is not None


# ------------------------------------------------------------------ #
# satellite fast paths
# ------------------------------------------------------------------ #


def test_gather_rows_contiguous_fast_path(medium_graph):
    g = medium_graph
    contiguous = np.arange(10, 40, dtype=np.int64)
    scattered = np.array([3, 9, 4, 40], dtype=np.int64)
    single = np.array([17], dtype=np.int64)
    for rows in (contiguous, scattered, single):
        sub_indptr, positions = gather_rows(g.indptr, rows)
        # Reference construction, row by row.
        ref = np.concatenate(
            [np.arange(g.indptr[r], g.indptr[r + 1]) for r in rows]
        ) if len(rows) else np.array([], dtype=np.int64)
        assert np.array_equal(positions, ref)
        assert np.array_equal(np.diff(sub_indptr),
                              g.degrees[rows])


def test_find_mutual_pairs_dedup():
    pointer = np.array([1, 0, 3, 2, UNMATCHED], dtype=np.int64)
    lo, hi = find_mutual_pairs(pointer)
    assert np.array_equal(lo, [0, 2])
    assert np.array_equal(hi, [1, 3])
    # Both endpoints in the candidate set must not duplicate the pair.
    lo, hi = find_mutual_pairs(pointer, np.array([0, 1, 2, 3, 3, 0]))
    assert np.array_equal(lo, [0, 2])
    assert np.array_equal(hi, [1, 3])


def test_csr_caches_are_memoised_and_readonly(triangle):
    d1 = triangle.degrees
    assert d1 is triangle.degrees
    assert not d1.flags.writeable
    e1 = triangle.canonical_edge_ids()
    assert e1 is triangle.canonical_edge_ids()
    assert not e1.flags.writeable
    o1 = triangle.sorted_order()
    assert o1 is triangle.sorted_order()
    assert not o1.flags.writeable


# ------------------------------------------------------------------ #
# bench integration: builder-backed cells and the pointing suite
# ------------------------------------------------------------------ #


def test_pointing_suite_shape():
    from repro.harness.bench import SUITES, tie_clique_300, tie_path_6000

    suite = SUITES["pointing"]
    names = {w.name for w in suite}
    # Engines come in index/segment pairs over the same workload.
    for name in names:
        if name.endswith("-index"):
            assert name[:-6] + "-segment" in names
    g = tie_clique_300()
    assert g.num_vertices == 300
    assert np.all(g.weights == 1.0)
    assert tie_path_6000().num_directed_edges == 2 * 5999


def _pointing_report(ratio, repeats=3):
    """The committed pointing baseline as a current report whose
    GAP-kron index entry carries ``ratio`` (``None``: no ratio)."""
    import copy
    import json
    from pathlib import Path

    from repro.harness.bench import POINTING_WALL_TWIN

    path = Path(__file__).resolve().parents[1] / "benchmarks" \
        / "baseline_pointing.json"
    baseline = json.loads(path.read_text())
    current = copy.deepcopy(baseline)
    current["repeats"] = repeats
    twin = next(w for w in current["workloads"]
                if w["name"] == f"{POINTING_WALL_TWIN}-index")
    if ratio is not None:
        twin["wall_ratio_vs_segment"] = ratio
    return current, baseline


def test_pointing_twin_gate_passes_when_index_wins():
    from repro.harness.bench import compare_reports

    # The committed baseline's sim_time figures pass unchanged.
    assert compare_reports(*_pointing_report(0.3)) == []
    assert compare_reports(*_pointing_report(1.0)) == []


def test_pointing_twin_gate_flags_index_slower():
    from repro.harness.bench import compare_reports

    problems = compare_reports(*_pointing_report(1.5))
    assert len(problems) == 1
    assert "ld_seq-GAP-kron-index" in problems[0]
    assert "slower than the segment oracle" in problems[0]
    problems = compare_reports(*_pointing_report(None))
    assert len(problems) == 1 and "missing" in problems[0]
    # Below 3 repeats the median does not amortise the one sort per
    # graph, so the ratio is not gated.
    assert compare_reports(*_pointing_report(1.5, repeats=1)) == []


def test_pointing_twin_ratio_attached(monkeypatch):
    """run_bench pairs the GAP-kron index entry with its segment twin
    (a stubbed grid, so the test does not time real runs)."""
    from repro.engine.record import RunRecord
    from repro.harness import bench

    def fake_run_cells(cells, **kw):
        out = []
        for c in cells:
            segment = c.overrides.get("engine") == "segment"
            out.append(RunRecord(
                algorithm="ld_seq", graph="g", num_vertices=2,
                num_directed_edges=2, weight=1.0, matched_edges=1,
                iterations=1, wall_time_s=2.0 if segment else 0.5))
        return out

    monkeypatch.setattr(bench, "run_cells", fake_run_cells)
    report = bench.run_bench("pointing", repeats=3)
    by_name = {w["name"]: w for w in report["workloads"]}
    twin = by_name[f"{bench.POINTING_WALL_TWIN}-index"]
    assert twin["wall_ratio_vs_segment"] == 0.25
    assert sum("wall_ratio_vs_segment" in w
               for w in report["workloads"]) == 1


def test_graph_plane_suite_shape():
    from repro.harness.bench import SUITES, tie_path_3000

    suite = SUITES["graph_plane"]
    names = {w.name for w in suite}
    for name in names:
        if name.endswith("-index"):
            assert name[:-6] + "-segment" in names
    g = tie_path_3000()
    assert g.num_vertices == 3000
    assert g.num_directed_edges == 2 * 2999
    assert np.all(g.weights == 1.0)
    # Stats stay on for every workload: host_entries_scanned is the
    # suite's gated metric.
    assert not any(w.overrides.get("collect_stats") is False
                   for w in suite)


def test_run_cells_builder_graph():
    from repro.engine.cells import Cell, run_cells
    from repro.harness.bench import tie_clique_300

    records = run_cells([
        Cell("ld_seq", build=tie_clique_300,
             overrides={"engine": "index"}),
        Cell("ld_seq", build=tie_clique_300,
             overrides={"engine": "segment"}),
    ])
    assert all(r.ok for r in records)
    assert records[0].graph == "tie-clique-300"
    assert records[0].weight == records[1].weight
    assert records[0].iterations == records[1].iterations == 151
