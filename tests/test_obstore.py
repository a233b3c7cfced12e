"""Unit and integration tests for the persistent observation store."""

import json
import threading

import numpy as np
import pytest

from conftest import make_node
from repro.server import ObservationStore, node_fingerprint
from repro.server.obstore import SCHEMA_KIND, SCHEMA_VERSION


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "observations.jsonl"


def sweep(node, n=12, rng_seed=5):
    """Observe ``n`` distinct random configurations (replayable by seed)."""
    rng = np.random.default_rng(rng_seed)
    configs, seen = [], set()
    while len(configs) < n:
        config = node.space.random(rng)
        if config.flat() not in seen:
            seen.add(config.flat())
            configs.append(config)
    observations = [node.observe(c) for c in configs]
    return configs, observations


class TestFingerprint:
    def test_same_physics_same_fingerprint(self, mini_server):
        a = make_node(mini_server, lc_loads=(0.4, 0.3), n_bg=1)
        b = make_node(mini_server, lc_loads=(0.4, 0.3), n_bg=1, seed=99)
        fp_a = node_fingerprint(mini_server, a.jobs, a.window_s)
        fp_b = node_fingerprint(mini_server, b.jobs, b.window_s)
        # The noise seed must NOT enter the fingerprint: truths are
        # noise-free, and noise is drawn fresh per window either way.
        assert fp_a == fp_b

    def test_window_length_changes_fingerprint(self, mini_server):
        node = make_node(mini_server)
        assert node_fingerprint(
            mini_server, node.jobs, 2.0
        ) != node_fingerprint(mini_server, node.jobs, 4.0)

    def test_workload_set_changes_fingerprint(self, mini_server):
        one_bg = make_node(mini_server, lc_loads=(0.4,), n_bg=1)
        two_bg = make_node(mini_server, lc_loads=(0.4,), n_bg=2)
        assert node_fingerprint(
            mini_server, one_bg.jobs, 2.0
        ) != node_fingerprint(mini_server, two_bg.jobs, 2.0)

    def test_storeless_node_has_no_fingerprint(self, mini_server):
        assert make_node(mini_server).fingerprint is None


class TestRoundTrip:
    def test_truths_survive_a_restart(self, mini_server, store_path):
        """A fresh store object on a fresh node replays the file for free."""
        with ObservationStore(store_path) as store:
            node = make_node(mini_server, store=store)
            configs, originals = sweep(node)
            assert node.physics_computations == len(configs)

        with ObservationStore(store_path) as warm:
            assert warm.stats().loaded == len(configs)
            replay_node = make_node(mini_server, store=warm)
            _, replays = sweep(replay_node)
            assert replay_node.physics_computations == 0
            assert warm.stats().hits == len(configs)
        # Noise-free nodes: replayed readings are bit-identical (JSON
        # round-trips floats exactly).
        for original, replay in zip(originals, replays):
            assert original.jobs == replay.jobs

    def test_noise_drawn_fresh_despite_warm_store(
        self, mini_server, store_path
    ):
        with ObservationStore(store_path) as store:
            sweep(make_node(mini_server, noise=0.01, seed=3, store=store))

        with ObservationStore(store_path) as warm:
            cold_node = make_node(mini_server, noise=0.01, seed=3)
            warm_node = make_node(mini_server, noise=0.01, seed=3, store=warm)
            _, expected = sweep(cold_node)
            _, observed = sweep(warm_node)
            assert warm_node.physics_computations == 0
        # Same seed -> same noisy readings, with or without the store.
        for want, got in zip(expected, observed):
            assert want.jobs == got.jobs

    def test_shared_across_nodes_in_one_process(self, mini_server, store_path):
        with ObservationStore(store_path) as store:
            configs, _ = sweep(make_node(mini_server, store=store))
            twin = make_node(mini_server, store=store)
            for config in configs:
                twin.observe(config)
            assert twin.physics_computations == 0

    def test_different_fingerprint_misses(self, mini_server, store_path):
        with ObservationStore(store_path) as store:
            configs, _ = sweep(make_node(mini_server, store=store))
            other = make_node(mini_server, lc_loads=(0.5,), n_bg=2, store=store)
            rng = np.random.default_rng(5)
            other.observe(other.space.random(rng))
            assert other.physics_computations == 1


class TestLRUBounds:
    def test_eviction_at_capacity(self, mini_server, store_path):
        store = ObservationStore(store_path, max_entries=5)
        node = make_node(mini_server, store=store)
        sweep(node, n=12)
        assert len(store) == 5
        assert store.stats().evictions == 12 - 5

    def test_capacity_enforced_on_reload(self, mini_server, store_path):
        with ObservationStore(store_path) as store:
            sweep(make_node(mini_server, store=store), n=12)
        small = ObservationStore(store_path, max_entries=3)
        assert len(small) == 3

    def test_get_refreshes_recency(self, store_path):
        store = ObservationStore(store_path, max_entries=2)
        store.put("fp", (1,), (0.1,), ())
        store.put("fp", (2,), (0.1,), ())
        assert store.get("fp", (1,), (0.1,)) is not None  # refresh (1,)
        store.put("fp", (3,), (0.1,), ())  # evicts (2,), not (1,)
        assert store.get("fp", (1,), (0.1,)) is not None
        assert store.get("fp", (2,), (0.1,)) is None

    def test_invalid_capacity_rejected(self, store_path):
        with pytest.raises(ValueError, match="max_entries"):
            ObservationStore(store_path, max_entries=0)


class TestCorruptionTolerance:
    def _write_valid_store(self, mini_server, store_path, n=6):
        with ObservationStore(store_path) as store:
            node = make_node(mini_server, store=store)
            configs, _ = sweep(node, n=n)
        return configs

    def test_truncated_line_skipped(self, mini_server, store_path):
        self._write_valid_store(mini_server, store_path)
        lines = store_path.read_text().splitlines()
        lines[3] = lines[3][: len(lines[3]) // 2]
        store_path.write_text("\n".join(lines) + "\n")
        store = ObservationStore(store_path)
        assert store.stats().corrupt == 1
        assert store.stats().loaded == 5

    def test_torn_tail_does_not_swallow_the_next_put(self, store_path):
        with ObservationStore(store_path) as store:
            store.put("fp", (1,), (0.1,), ())
            store.put("fp", (2,), (0.1,), ())
        data = store_path.read_bytes()
        store_path.write_bytes(data[:-15])  # crash mid-append: no "\n"
        reopened = ObservationStore(store_path)
        assert reopened.stats().corrupt == 1
        reopened.put("fp", (3,), (0.1,), ())
        reopened.close()
        reloaded = ObservationStore(store_path)
        assert reloaded.get("fp", (3,), (0.1,)) is not None
        assert reloaded.stats().corrupt == 1

    def test_garbage_lines_skipped(self, mini_server, store_path):
        self._write_valid_store(mini_server, store_path)
        with open(store_path, "a") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"fp": "x"}) + "\n")  # missing fields
        store = ObservationStore(store_path)
        assert store.stats().corrupt == 2
        assert store.stats().loaded == 6

    def test_wrong_header_discards_file(self, mini_server, store_path):
        self._write_valid_store(mini_server, store_path)
        lines = store_path.read_text().splitlines()
        lines[0] = json.dumps({"schema": "something-else", "version": 1})
        store_path.write_text("\n".join(lines) + "\n")
        store = ObservationStore(store_path)
        assert len(store) == 0
        assert store.stats().corrupt == 1

    def test_future_version_discards_file(self, mini_server, store_path):
        self._write_valid_store(mini_server, store_path)
        lines = store_path.read_text().splitlines()
        lines[0] = json.dumps(
            {"schema": SCHEMA_KIND, "version": SCHEMA_VERSION + 1}
        )
        store_path.write_text("\n".join(lines) + "\n")
        assert len(ObservationStore(store_path)) == 0

    def test_missing_file_is_empty_store(self, store_path):
        store = ObservationStore(store_path)
        assert len(store) == 0
        assert store.stats().corrupt == 0

    def test_empty_file_is_empty_store(self, store_path):
        store_path.write_text("")
        assert len(ObservationStore(store_path)) == 0


class TestCompaction:
    def test_file_stays_bounded(self, mini_server, store_path):
        store = ObservationStore(store_path, max_entries=4)
        node = make_node(mini_server, store=store)
        sweep(node, n=40, rng_seed=1)
        sweep(make_node(mini_server, store=store), n=40, rng_seed=2)
        store.flush()
        lines = store_path.read_text().splitlines()
        # Compaction keeps the file at header + live entries, never the
        # full append history.
        assert len(lines) <= max(2 * store.max_entries, 64) + 1
        assert json.loads(lines[0])["schema"] == SCHEMA_KIND

    def test_compacted_file_reloads(self, mini_server, store_path):
        store = ObservationStore(store_path, max_entries=4)
        node = make_node(mini_server, store=store)
        sweep(node, n=80, rng_seed=1)
        store.close()
        reloaded = ObservationStore(store_path, max_entries=4)
        assert len(reloaded) == 4


class TestConcurrency:
    def test_parallel_puts_and_gets(self, store_path):
        store = ObservationStore(store_path, max_entries=64)
        errors = []

        def worker(base):
            try:
                for i in range(50):
                    store.put("fp", (base, i), (0.1,), ())
                    store.get("fp", (base, (i * 7) % 50), (0.1,))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store) == 64
