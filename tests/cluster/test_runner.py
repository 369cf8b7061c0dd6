"""Unit + integration tests for the experiment runner."""

import pytest

from repro.cluster import (
    build_myrinet_cluster,
    build_quadrics_cluster,
    run_barrier_experiment,
)


def myrinet(n=4):
    return build_myrinet_cluster("lanai_xp_xeon2400", nodes=n)


def quadrics(n=4):
    return build_quadrics_cluster("elan3_piii700", nodes=n)


class TestValidation:
    def test_barrier_kind_checked_per_network(self):
        with pytest.raises(ValueError, match="invalid for this cluster"):
            run_barrier_experiment(myrinet(), "gsync")
        with pytest.raises(ValueError, match="invalid for this cluster"):
            run_barrier_experiment(quadrics(), "host")

    def test_not_a_cluster(self):
        with pytest.raises(TypeError):
            run_barrier_experiment(object(), "host")

    def test_warmup_and_iterations_positive(self):
        with pytest.raises(ValueError):
            run_barrier_experiment(myrinet(), "host", warmup=0)
        with pytest.raises(ValueError):
            run_barrier_experiment(myrinet(), "host", iterations=0)

    def test_nodes_subset_range(self):
        with pytest.raises(ValueError):
            run_barrier_experiment(myrinet(4), "host", nodes=5)
        with pytest.raises(ValueError):
            run_barrier_experiment(myrinet(4), "host", nodes=1)


class TestMeasurement:
    def test_result_fields(self):
        result = run_barrier_experiment(
            myrinet(), "nic-collective", iterations=10, warmup=3
        )
        assert result.profile == "lanai_xp_xeon2400"
        assert result.barrier == "nic-collective"
        assert result.nodes == 4
        assert result.iterations == 10
        assert result.mean_latency_us > 0
        assert result.min_iteration_us <= result.mean_latency_us
        assert result.max_iteration_us >= result.mean_latency_us
        assert result.total_us == pytest.approx(result.mean_latency_us * 10)

    def test_permutation_recorded(self):
        result = run_barrier_experiment(
            myrinet(), "nic-collective", iterations=5, warmup=2, seed=3
        )
        assert sorted(result.node_permutation) == [0, 1, 2, 3]

    def test_permute_nodes_false_uses_identity(self):
        result = run_barrier_experiment(
            myrinet(), "nic-collective", iterations=5, warmup=2,
            permute_nodes=False,
        )
        assert result.node_permutation == (0, 1, 2, 3)

    def test_nodes_subset(self):
        result = run_barrier_experiment(
            myrinet(8), "nic-collective", iterations=5, warmup=2, nodes=4
        )
        assert result.nodes == 4
        assert len(result.node_permutation) == 4

    def test_deterministic_given_seed(self):
        a = run_barrier_experiment(myrinet(), "host", iterations=8, warmup=2, seed=5)
        b = run_barrier_experiment(myrinet(), "host", iterations=8, warmup=2, seed=5)
        assert a.mean_latency_us == b.mean_latency_us
        assert a.node_permutation == b.node_permutation

    def test_counters_cover_every_barrier(self):
        result = run_barrier_experiment(
            myrinet(), "nic-collective", iterations=10, warmup=5
        )
        # 4 nodes x 2 messages (dissemination, N=4) x (5 warm-up + 10 timed)
        assert result.counted_barriers == 15
        assert result.counters["wire.barrier"] == 4 * 2 * 15

    def test_counters_exact_at_64_nodes(self):
        """Consecutive barriers overlap at N=64: early ranks start the
        next barrier before the last rank leaves this one, so a counter
        window opened at a barrier boundary would miss their sends."""
        result = run_barrier_experiment(
            myrinet(64), "nic-collective", iterations=5, warmup=2
        )
        assert result.counted_barriers == 7
        # 64 nodes x 6 dissemination steps x 7 barriers
        assert result.counters["wire.barrier"] == 7 * 64 * 6
        assert all(result.counters[f"pci{i}.pio"] == 7 for i in range(64))

    def test_str(self):
        result = run_barrier_experiment(myrinet(), "host", iterations=3, warmup=1)
        text = str(result)
        assert "host" in text and "N=4" in text


class TestAllKindsRun:
    @pytest.mark.parametrize("barrier", ["host", "nic-direct", "nic-collective"])
    def test_myrinet_kinds(self, barrier):
        result = run_barrier_experiment(myrinet(), barrier, iterations=5, warmup=2)
        assert result.mean_latency_us > 0

    @pytest.mark.parametrize("barrier", ["gsync", "hgsync", "nic-chained"])
    def test_quadrics_kinds(self, barrier):
        result = run_barrier_experiment(quadrics(), barrier, iterations=5, warmup=2)
        assert result.mean_latency_us > 0

    @pytest.mark.parametrize("algorithm", ["dissemination", "pairwise-exchange",
                                           "gather-broadcast"])
    def test_algorithms_host(self, algorithm):
        result = run_barrier_experiment(
            myrinet(), "host", algorithm, iterations=4, warmup=2
        )
        assert result.mean_latency_us > 0


class TestSchemeOrdering:
    def test_collective_fastest_host_slowest(self):
        results = {
            kind: run_barrier_experiment(
                myrinet(8), kind, iterations=20, warmup=5
            ).mean_latency_us
            for kind in ("nic-collective", "nic-direct", "host")
        }
        assert results["nic-collective"] < results["nic-direct"] < results["host"]

    def test_quadrics_nic_beats_tree(self):
        nic = run_barrier_experiment(
            quadrics(8), "nic-chained", iterations=20, warmup=5
        ).mean_latency_us
        tree = run_barrier_experiment(
            quadrics(8), "gsync", iterations=20, warmup=5
        ).mean_latency_us
        assert nic < tree
