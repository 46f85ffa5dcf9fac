"""LD-GPU tests: Lemma III.1 (equivalence with LD-SEQ) across device and
batch configurations, memory behaviour, timeline accounting, and golden
digests of every modeled output."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_graph, random_graphs
from repro.gpusim.memory import DeviceOOMError
from repro.gpusim.spec import DGX_2, DGX_A100, DGX_A100_PCIE
from repro.gpusim.timeline import COMPONENTS
from repro.harness.datasets import quality_instance
from repro.matching.ld_gpu import ld_gpu
from repro.matching.ld_multinode import ld_multinode
from repro.matching.ld_seq import ld_seq
from repro.matching.validate import verify_result
from repro.telemetry import MetricsRegistry
from repro.telemetry.spans import record_into


class TestEquivalenceWithLdSeq:
    """The executable Lemma III.1: any (devices, batches) configuration
    yields the bit-identical matching of the sequential algorithm."""

    @pytest.mark.parametrize("nd", [1, 2, 3, 5, 8])
    def test_device_sweep(self, medium_graph, nd):
        ref = ld_seq(medium_graph)
        r = ld_gpu(medium_graph, DGX_A100, num_devices=nd)
        assert np.array_equal(ref.mate, r.mate)
        verify_result(medium_graph, r)

    @pytest.mark.parametrize("nb", [1, 2, 3, 6, 11])
    def test_batch_sweep(self, medium_graph, nb):
        ref = ld_seq(medium_graph)
        r = ld_gpu(medium_graph, DGX_A100, num_devices=4, num_batches=nb)
        assert np.array_equal(ref.mate, r.mate)

    @pytest.mark.parametrize("nb", [2, 5])
    def test_force_streaming_same_result(self, medium_graph, nb):
        ref = ld_seq(medium_graph)
        r = ld_gpu(medium_graph, DGX_A100, num_devices=2, num_batches=nb,
                   force_streaming=True)
        assert np.array_equal(ref.mate, r.mate)

    def test_dgx2_sixteen_devices(self, medium_graph):
        ref = ld_seq(medium_graph)
        r = ld_gpu(medium_graph, DGX_2, num_devices=16)
        assert np.array_equal(ref.mate, r.mate)

    @given(random_graphs(max_vertices=20, max_edges=50),
           st.integers(1, 4), st.sampled_from([None, 1, 2, 4]))
    def test_property_equivalence(self, g, nd, nb):
        ref = ld_seq(g)
        r = ld_gpu(g, DGX_A100, num_devices=nd, num_batches=nb)
        assert np.array_equal(ref.mate, r.mate)

    @given(random_graphs(max_vertices=16, max_edges=40, tie_prone=True),
           st.integers(1, 4))
    def test_property_equivalence_ties(self, g, nd):
        ref = ld_seq(g)
        r = ld_gpu(g, DGX_A100, num_devices=nd)
        assert np.array_equal(ref.mate, r.mate)

    def test_same_iteration_count_as_seq(self, medium_graph):
        # both terminate after the same number of rounds
        assert ld_gpu(medium_graph, num_devices=3).iterations == \
            ld_seq(medium_graph).iterations


class TestConfiguration:
    def test_zero_devices(self, medium_graph):
        with pytest.raises(ValueError):
            ld_gpu(medium_graph, num_devices=0)

    def test_too_many_devices(self, medium_graph):
        with pytest.raises(ValueError, match="only"):
            ld_gpu(medium_graph, DGX_A100, num_devices=9)

    def test_config_echo(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2, num_batches=3)
        cfg = r.stats["config"]
        assert cfg.num_devices == 2
        assert cfg.num_batches == 3
        assert cfg.platform == "DGX-A100"

    def test_partition_offsets_cover(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=4)
        off = r.stats["partition_offsets"]
        assert off[0] == 0
        assert off[-1] == medium_graph.num_vertices


class TestMemoryBehaviour:
    def test_oom_when_fixed_arrays_dont_fit(self, medium_graph):
        tiny = DGX_A100.with_device_memory(100)
        with pytest.raises(DeviceOOMError):
            ld_gpu(medium_graph, tiny, num_devices=1)

    def test_auto_batching_kicks_in(self, medium_graph):
        n = medium_graph.num_vertices
        fixed = 2 * n * 8 + (n + 1) * 8
        edges = medium_graph.num_directed_edges * 16
        plat = DGX_A100.with_device_memory(fixed + edges // 2)
        r = ld_gpu(medium_graph, plat, num_devices=1)
        assert r.stats["config"].num_batches > 1
        assert np.array_equal(r.mate, ld_seq(medium_graph).mate)

    def test_explicit_single_batch_oom(self, medium_graph):
        n = medium_graph.num_vertices
        fixed = 2 * n * 8 + (n + 1) * 8
        edges = medium_graph.num_directed_edges * 16
        plat = DGX_A100.with_device_memory(fixed + edges // 2)
        with pytest.raises(DeviceOOMError):
            ld_gpu(medium_graph, plat, num_devices=1, num_batches=1)

    def test_peak_memory_reported(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2)
        peaks = r.stats["device_peak_bytes"]
        assert len(peaks) == 2
        assert all(p > 0 for p in peaks)

    def test_more_devices_smaller_partitions(self, medium_graph):
        n = medium_graph.num_vertices
        fixed = 2 * n * 8 + (n + 1) * 8
        edges = medium_graph.num_directed_edges * 16
        plat = DGX_A100.with_device_memory(fixed + edges // 2)
        # 4 devices: each partition ~ edges/4 < edges/2 -> resident
        r = ld_gpu(medium_graph, plat, num_devices=4)
        assert r.stats["config"].num_batches == 1


class TestTimeline:
    def test_components_populated(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=4)
        t = r.timeline
        assert t.totals["pointing"] > 0
        assert t.totals["matching"] > 0
        assert t.totals["allreduce_pointers"] > 0
        assert t.totals["allreduce_mate"] > 0
        assert t.totals["sync"] > 0
        assert r.sim_time == pytest.approx(t.total)

    def test_single_device_no_collectives(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=1)
        assert r.timeline.totals["allreduce_pointers"] == 0.0
        assert r.timeline.totals["allreduce_mate"] == 0.0

    def test_iteration_records(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2)
        assert len(r.timeline.iterations) == r.iterations

    def test_no_batch_transfer_when_resident(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2, num_batches=3)
        assert r.timeline.totals["batch_transfer"] == 0.0

    def test_streaming_charges_transfer(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2, num_batches=3,
                   force_streaming=True)
        assert r.timeline.totals["batch_transfer"] > 0
        assert r.stats["initial_transfer_s"] > 0

    def test_initial_transfer_excluded(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2, num_batches=3,
                   force_streaming=True, max_iterations=1)
        # only the first iteration ran; its loads are the partition
        # placement and must not be charged
        assert r.timeline.totals["batch_transfer"] == 0.0
        assert r.stats["initial_transfer_s"] > 0

    def test_nvlink_beats_pcie(self, medium_graph):
        nv = ld_gpu(medium_graph, DGX_A100, num_devices=4)
        pc = ld_gpu(medium_graph, DGX_A100_PCIE, num_devices=4)
        assert pc.sim_time > nv.sim_time

    def test_multi_gpu_comm_dominates(self, medium_graph):
        # the paper's Fig. 5 headline: ≥50% communication at multi-GPU
        r = ld_gpu(medium_graph, num_devices=8)
        assert r.timeline.communication_fraction() > 0.5


class TestIterationStats:
    def test_series_lengths(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2)
        for key in ("edges_scanned", "occupancy", "warp_work_mean",
                    "warp_work_std", "new_matches"):
            assert len(r.stats[key]) == r.iterations

    def test_first_iteration_scans_everything(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2)
        assert r.stats["edges_scanned"][0] == \
            medium_graph.num_directed_edges

    def test_matches_sum(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=3)
        assert r.stats["new_matches"].sum() == r.num_matched_edges

    def test_occupancy_in_unit_range(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2)
        occ = r.stats["occupancy"]
        assert np.all(occ >= 0.0) and np.all(occ <= 1.0)

    def test_stats_disabled(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2, collect_stats=False)
        assert "edges_scanned" not in r.stats


class TestEdgeCases:
    def test_empty_graph(self):
        g = build_graph(6, [])
        r = ld_gpu(g, num_devices=3)
        assert r.num_matched_edges == 0
        assert r.iterations == 1

    def test_single_edge_across_partition(self):
        # vertices land on different devices; the cut edge must match
        g = build_graph(2, [(0, 1, 1.0)])
        r = ld_gpu(g, num_devices=2)
        assert r.mate[0] == 1

    def test_more_devices_than_vertices(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        r = ld_gpu(g, num_devices=8)
        assert np.array_equal(r.mate, ld_seq(g).mate)

    def test_max_iterations(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2, max_iterations=2)
        assert r.iterations == 2


# --------------------------------------------------------------------- #
# Golden digests: every modeled output of the round loop, pinned
# --------------------------------------------------------------------- #

_DIGEST_GRAPHS = ("GAP-kron", "mouse_gene", "HV15R", "mycielskian18",
                  "kmer_V2a", "HV15R-unit", "empty6", "path3")


def _digest_graph(name):
    if name == "empty6":
        return build_graph(6, [])
    if name == "path3":  # fewer vertices than most device counts
        return build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    if name.endswith("-unit"):
        g = quality_instance(name[:-len("-unit")])
        return g.reweighted(np.ones_like(g.weights))
    return quality_instance(name)


def _digest_configs():
    """(id, algorithm, kwargs) over the round loop's code paths."""
    out = []
    for engine in ("index", "segment"):
        for nd in (1, 2, 4):
            for nb in (None, 3):
                out.append((f"{engine}-d{nd}-b{nb}", "ld_gpu",
                            dict(num_devices=nd, num_batches=nb,
                                 engine=engine)))
        out.append((f"{engine}-d2-b3-stream", "ld_gpu",
                    dict(num_devices=2, num_batches=3,
                         force_streaming=True, engine=engine)))
        out.append((f"{engine}-d4-vertex", "ld_gpu",
                    dict(num_devices=4, partition="vertex",
                         engine=engine)))
        out.append((f"{engine}-d2-max2", "ld_gpu",
                    dict(num_devices=2, max_iterations=2, engine=engine)))
        out.append((f"{engine}-multinode2", "ld_multinode",
                    dict(num_nodes=2, engine=engine)))
    return out


def run_digest(graph, algorithm, kwargs):
    """sha256 (16 hex) over a run's mate, modeled clock, per-round
    series and the telemetry totals it emits."""
    fn = ld_gpu if algorithm == "ld_gpu" else ld_multinode
    reg = MetricsRegistry()
    with record_into(reg):
        r = fn(graph, **kwargs)
    snap = reg.snapshot()
    s = r.stats

    def arr(key):
        return hashlib.sha256(np.ascontiguousarray(s[key]).tobytes()) \
            .hexdigest()

    doc = {
        "mate": hashlib.sha256(r.mate.tobytes()).hexdigest(),
        "weight": repr(r.weight),
        "iterations": r.iterations,
        "sim_time": repr(r.sim_time),
        "totals": {c: repr(v) for c, v in r.timeline.totals.items()},
        "per_round": [[repr(v) for v in rec.values()]
                      for rec in r.timeline.iterations],
        "host": [s["host_entries_scanned"],
                 s["host_entries_scanned_pointing"],
                 s["host_entries_scanned_matching"]],
        "series": [arr(k) for k in ("edges_scanned", "occupancy",
                                    "warp_work_mean", "warp_work_std",
                                    "new_matches")],
        "initial_transfer_s": repr(s["initial_transfer_s"]),
        "device_peak_bytes": [int(b) for b in s["device_peak_bytes"]],
        "num_batches": s["config"].num_batches,
        "kernel_launches": snap.total("repro_kernel_launches_total"),
        "kernel_seconds": [
            sum(x["count"] for x in snap.samples("repro_kernel_seconds")),
            repr(snap.total("repro_kernel_seconds"))],
        "pipeline_batches": snap.total("repro_pipeline_batches_total"),
        "metrics": hashlib.sha256(json.dumps(
            snap.to_dict(), sort_keys=True).encode()).hexdigest(),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()) \
        .hexdigest()[:16]


#: ``run_digest`` of every (graph, config) pair, recorded before the
#: round loop kept one host copy of the replicated arrays (per-device
#: arrays merged by real MAX allreduces, one pointing call per batch).
GOLDEN_DIGESTS = {
    "GAP-kron/index-d1-bNone": "f056b442b00b9803",
    "GAP-kron/index-d1-b3": "a2637440e899f6dd",
    "GAP-kron/index-d2-bNone": "6d6a46ff0c072104",
    "GAP-kron/index-d2-b3": "394b955cfbd4d957",
    "GAP-kron/index-d4-bNone": "2d3b84f67d5af538",
    "GAP-kron/index-d4-b3": "a52e954d9de87b1c",
    "GAP-kron/index-d2-b3-stream": "1b312fd421d37320",
    "GAP-kron/index-d4-vertex": "f974c39982db1acf",
    "GAP-kron/index-d2-max2": "1a56ad9b7448054c",
    "GAP-kron/index-multinode2": "a957dc005ae30df3",
    "GAP-kron/segment-d1-bNone": "c100a7d3862aab93",
    "GAP-kron/segment-d1-b3": "0307ba17091eee85",
    "GAP-kron/segment-d2-bNone": "141cbc30b56e3a1d",
    "GAP-kron/segment-d2-b3": "60c07db5590cb2c4",
    "GAP-kron/segment-d4-bNone": "3114614d3382eba3",
    "GAP-kron/segment-d4-b3": "8bcce717d1375467",
    "GAP-kron/segment-d2-b3-stream": "f60bcc5f1f653345",
    "GAP-kron/segment-d4-vertex": "eb5c9723de4628ac",
    "GAP-kron/segment-d2-max2": "c485b7f61cabc9e9",
    "GAP-kron/segment-multinode2": "b59b74b84e4ce928",
    "mouse_gene/index-d1-bNone": "cb314f0eed0d1510",
    "mouse_gene/index-d1-b3": "bb1961df27192f26",
    "mouse_gene/index-d2-bNone": "d4d39d2aae6ce3b5",
    "mouse_gene/index-d2-b3": "c5e5e65710c8715e",
    "mouse_gene/index-d4-bNone": "b95582f8f7914fa9",
    "mouse_gene/index-d4-b3": "7a1fda2da1a9a8ea",
    "mouse_gene/index-d2-b3-stream": "9f58febed642d8f2",
    "mouse_gene/index-d4-vertex": "290eaebe7d4c65c2",
    "mouse_gene/index-d2-max2": "3be265df704218b0",
    "mouse_gene/index-multinode2": "15ae929fe9c67e8d",
    "mouse_gene/segment-d1-bNone": "4f94bcf10dc7b53b",
    "mouse_gene/segment-d1-b3": "f1db6cfcfc48ca54",
    "mouse_gene/segment-d2-bNone": "6507efca6f3bc5ef",
    "mouse_gene/segment-d2-b3": "77e238a717772fc2",
    "mouse_gene/segment-d4-bNone": "c8e319a82db0fd43",
    "mouse_gene/segment-d4-b3": "acd58cf22a72bf0f",
    "mouse_gene/segment-d2-b3-stream": "7f5ecc51fa80c699",
    "mouse_gene/segment-d4-vertex": "0e2e75ba348a98c8",
    "mouse_gene/segment-d2-max2": "3f2264e6779972de",
    "mouse_gene/segment-multinode2": "ba8ef7f0d44dc132",
    "HV15R/index-d1-bNone": "e114f3550661ceb7",
    "HV15R/index-d1-b3": "112dd1ee3583c23f",
    "HV15R/index-d2-bNone": "95ebbcc9f177b636",
    "HV15R/index-d2-b3": "8d9f1c58462afc24",
    "HV15R/index-d4-bNone": "6bf45248f3781577",
    "HV15R/index-d4-b3": "df9bc38020b763a0",
    "HV15R/index-d2-b3-stream": "8bd358a9c5f5bd94",
    "HV15R/index-d4-vertex": "953b13d6bd93a501",
    "HV15R/index-d2-max2": "31f31e96f11172c2",
    "HV15R/index-multinode2": "9d0c7f5fadebe06b",
    "HV15R/segment-d1-bNone": "391fd2a3401b8441",
    "HV15R/segment-d1-b3": "a971fb7f7575aeb8",
    "HV15R/segment-d2-bNone": "68741bb9fa93338b",
    "HV15R/segment-d2-b3": "2e2510976dd00822",
    "HV15R/segment-d4-bNone": "2126335b6d66687c",
    "HV15R/segment-d4-b3": "8e0bb2b30fcf4d61",
    "HV15R/segment-d2-b3-stream": "262b4da8f1f310f2",
    "HV15R/segment-d4-vertex": "3c92a53de8ce4dbc",
    "HV15R/segment-d2-max2": "1472f77914cd00aa",
    "HV15R/segment-multinode2": "69151b2a59133abc",
    "mycielskian18/index-d1-bNone": "89b4a093b03374eb",
    "mycielskian18/index-d1-b3": "2a64f61f8174005f",
    "mycielskian18/index-d2-bNone": "02b1b9fa78ca7feb",
    "mycielskian18/index-d2-b3": "b37570b025f07296",
    "mycielskian18/index-d4-bNone": "415e98a85a730792",
    "mycielskian18/index-d4-b3": "742b48cbc9ccf072",
    "mycielskian18/index-d2-b3-stream": "42df83378c08dfff",
    "mycielskian18/index-d4-vertex": "b9dfd6b191fa6b84",
    "mycielskian18/index-d2-max2": "7407eb5f6f0e75c1",
    "mycielskian18/index-multinode2": "ee5875c6f9bdf39a",
    "mycielskian18/segment-d1-bNone": "d0b9c0ad4e2d8f88",
    "mycielskian18/segment-d1-b3": "c3d5b93bb057e9f5",
    "mycielskian18/segment-d2-bNone": "046585dae97cb6b4",
    "mycielskian18/segment-d2-b3": "85f7fa2e6a859464",
    "mycielskian18/segment-d4-bNone": "0418ae72d6a25ec2",
    "mycielskian18/segment-d4-b3": "4a6655ff70b41adb",
    "mycielskian18/segment-d2-b3-stream": "fee6d615f8efee65",
    "mycielskian18/segment-d4-vertex": "3c05e274be3d3b01",
    "mycielskian18/segment-d2-max2": "944f0db81c08cf49",
    "mycielskian18/segment-multinode2": "781df9d3ee41bb2a",
    "kmer_V2a/index-d1-bNone": "0569f891aff89ed2",
    "kmer_V2a/index-d1-b3": "9491e050592dfd57",
    "kmer_V2a/index-d2-bNone": "19cfe639e00cb85e",
    "kmer_V2a/index-d2-b3": "28c7565247b55a34",
    "kmer_V2a/index-d4-bNone": "36170bddea043ac1",
    "kmer_V2a/index-d4-b3": "671e4b704c9809e0",
    "kmer_V2a/index-d2-b3-stream": "5349893a56cc20d3",
    "kmer_V2a/index-d4-vertex": "e99a922ef370ef43",
    "kmer_V2a/index-d2-max2": "58e0af05a3d1a9e6",
    "kmer_V2a/index-multinode2": "4a4ab77bb36a35ff",
    "kmer_V2a/segment-d1-bNone": "f670bf12a1369a96",
    "kmer_V2a/segment-d1-b3": "283e534367616030",
    "kmer_V2a/segment-d2-bNone": "c509b8350cc54bd6",
    "kmer_V2a/segment-d2-b3": "5c3112e979a71cf9",
    "kmer_V2a/segment-d4-bNone": "ea7fb3babf551b39",
    "kmer_V2a/segment-d4-b3": "1c161d0551862b35",
    "kmer_V2a/segment-d2-b3-stream": "359a3cc82be683ba",
    "kmer_V2a/segment-d4-vertex": "4ee722da5eb46322",
    "kmer_V2a/segment-d2-max2": "1026b2ededfef26f",
    "kmer_V2a/segment-multinode2": "ea3b1f6f702d86b3",
    "HV15R-unit/index-d1-bNone": "95440bb741dc06a4",
    "HV15R-unit/index-d1-b3": "3e58ced178016258",
    "HV15R-unit/index-d2-bNone": "76d54822dc547437",
    "HV15R-unit/index-d2-b3": "1823c1c27f426baf",
    "HV15R-unit/index-d4-bNone": "6b2c1fa6fc66f111",
    "HV15R-unit/index-d4-b3": "5154d143e9dab5e0",
    "HV15R-unit/index-d2-b3-stream": "b10f025791102ccb",
    "HV15R-unit/index-d4-vertex": "aed16ca03d28e32c",
    "HV15R-unit/index-d2-max2": "f08f0394088bb890",
    "HV15R-unit/index-multinode2": "329f6e609fc2abd6",
    "HV15R-unit/segment-d1-bNone": "695d365e7a5d0afa",
    "HV15R-unit/segment-d1-b3": "90bb762b23b5c769",
    "HV15R-unit/segment-d2-bNone": "eab29f5de537eeda",
    "HV15R-unit/segment-d2-b3": "84afe8ee7080be16",
    "HV15R-unit/segment-d4-bNone": "4db3baa4ebb537c9",
    "HV15R-unit/segment-d4-b3": "a1eee4c8fcca3097",
    "HV15R-unit/segment-d2-b3-stream": "1f3b023f835d4a98",
    "HV15R-unit/segment-d4-vertex": "4977acd214792181",
    "HV15R-unit/segment-d2-max2": "a9d2d2705cc55749",
    "HV15R-unit/segment-multinode2": "9c4c13c11f53eba8",
    "empty6/index-d1-bNone": "493cff73eddd7f34",
    "empty6/index-d1-b3": "4ad82a4a91529118",
    "empty6/index-d2-bNone": "bfad9ae7f3a2ce59",
    "empty6/index-d2-b3": "2b3892900947aa37",
    "empty6/index-d4-bNone": "4e8fd7709ca756cd",
    "empty6/index-d4-b3": "9a465db03ec9c5b3",
    "empty6/index-d2-b3-stream": "1e51eea3b8756f88",
    "empty6/index-d4-vertex": "7f29bbf55dbebe8c",
    "empty6/index-d2-max2": "bfad9ae7f3a2ce59",
    "empty6/index-multinode2": "1d7e10c76b93ab96",
    "empty6/segment-d1-bNone": "52f9d45c5692744e",
    "empty6/segment-d1-b3": "fdefc96a1f280357",
    "empty6/segment-d2-bNone": "191eeded77b60338",
    "empty6/segment-d2-b3": "df2d1506d92b40f1",
    "empty6/segment-d4-bNone": "575172fd27aeb553",
    "empty6/segment-d4-b3": "91fbffeeb6fe3c78",
    "empty6/segment-d2-b3-stream": "35823026d4fe956f",
    "empty6/segment-d4-vertex": "1db6901eb6131a9c",
    "empty6/segment-d2-max2": "191eeded77b60338",
    "empty6/segment-multinode2": "fac3bb68c0f92608",
    "path3/index-d1-bNone": "c8711437df761d75",
    "path3/index-d1-b3": "d1bf14d7c3bec231",
    "path3/index-d2-bNone": "bb25c9ed1692bbc5",
    "path3/index-d2-b3": "b7761daefb376dcd",
    "path3/index-d4-bNone": "a7dfaa5a52b45f90",
    "path3/index-d4-b3": "20e37765c757ff9e",
    "path3/index-d2-b3-stream": "16630d5eef9232a4",
    "path3/index-d4-vertex": "365f6082573987b9",
    "path3/index-d2-max2": "bb25c9ed1692bbc5",
    "path3/index-multinode2": "1537a6cc46c8ac3c",
    "path3/segment-d1-bNone": "c2e910fe51cb5cc1",
    "path3/segment-d1-b3": "266aa1805943af61",
    "path3/segment-d2-bNone": "a0115e4608168052",
    "path3/segment-d2-b3": "60dcded5ae68f6c9",
    "path3/segment-d4-bNone": "1f9d54ab9170b9fa",
    "path3/segment-d4-b3": "0a9d3b9796a82d19",
    "path3/segment-d2-b3-stream": "7fb6555ff655768e",
    "path3/segment-d4-vertex": "0bdc3b988ea1fb0f",
    "path3/segment-d2-max2": "a0115e4608168052",
    "path3/segment-multinode2": "02d5960648f0d194",
}


@pytest.mark.parametrize("name", _DIGEST_GRAPHS)
def test_golden_digests(name):
    g = _digest_graph(name)
    got = {f"{name}/{cid}": run_digest(g, algorithm, kwargs)
           for cid, algorithm, kwargs in _digest_configs()}
    want = {k: v for k, v in GOLDEN_DIGESTS.items()
            if k.startswith(name + "/")}
    assert got == want
