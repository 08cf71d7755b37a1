"""Replicated shards: failover reads, promotion, rolling restarts.

The central replication properties:

* Reads served by replicas are byte-identical to the primary's answers
  (drain-to-ack before every replica read).
* A SIGKILLed replica is detached and re-seeded; reads fail over to
  surviving workers with no wrong answers and no errors.
* A SIGKILLed primary promotes the freshest replica and re-runs the
  in-flight batch exactly once — delivered ``MatchDelta`` frames stay
  byte-identical to a never-crashed oracle.
* ``rolling_restart()`` (drain, snapshot, respawn, resume) misses and
  duplicates zero frames, on every executor.
* The respawn budget is a sliding window: only death *bursts* degrade a
  shard; spaced-out deaths decay out of the budget.
"""

from __future__ import annotations

import json
import pickle
import signal
import threading
import time

import pytest

from repro import QueryBuilder, add, delete
from repro.graph.errors import EngineError, PersistenceError
from repro.pubsub import ShardedEngineGroup, SubscriptionBroker


# ----------------------------------------------------------------------
# Workload helpers (mirrors tests/test_persistence.py)
# ----------------------------------------------------------------------
def patterns():
    return [
        QueryBuilder("chain")
        .edge("knows", "?a", "?b")
        .edge("likes", "?b", "?c")
        .build(),
        QueryBuilder("pair").edge("knows", "?x", "?y").build(),
        QueryBuilder("tri").edge("likes", "?x", "?y").edge("likes", "?y", "?z").build(),
    ]


def interleaved_stream(n=60, seed=0):
    updates = []
    live = []
    for i in range(n):
        update = add(
            ("knows", "likes")[(i + seed) % 2],
            f"v{(i * 5 + seed) % 9}",
            f"v{(i * 3 + 1) % 9}",
        )
        updates.append(update)
        live.append(update.edge)
        if i % 4 == 3:
            edge = live.pop((i * 7 + seed) % len(live))
            updates.append(delete(edge.label, edge.source, edge.target))
    return updates


def batches_of(updates, size):
    return [updates[start : start + size] for start in range(0, len(updates), size)]


def assert_same_answers(left, right):
    for pattern in patterns():
        assert left.matches_of(pattern.query_id) == right.matches_of(
            pattern.query_id
        ), pattern.query_id
    assert left.satisfied_queries() == right.satisfied_queries()


def frames_of(subscription):
    return [
        json.dumps(delta.as_dict(), sort_keys=True) for delta in subscription.drain()
    ]


def replicated_group(**kwargs):
    kwargs.setdefault("replicas", 1)
    kwargs.setdefault("worker_snapshot_every", 4)
    return ShardedEngineGroup("TRIC+", 2, executor="process", **kwargs)


@pytest.fixture
def hard_timeout():
    """Hard wall-clock limit so a supervision bug fails loudly, not silently."""

    def _timed_out(signum, frame):  # pragma: no cover - only on deadlock
        raise TimeoutError("replication test exceeded its hard timeout")

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Construction & validation
# ----------------------------------------------------------------------
class TestConstruction:
    def test_replicas_require_process_executor(self):
        with pytest.raises(EngineError, match="process executor"):
            ShardedEngineGroup("TRIC+", 2, executor="serial", replicas=1)
        with pytest.raises(EngineError, match="non-negative"):
            ShardedEngineGroup("TRIC+", 2, executor="process", replicas=-1)

    def test_replica_pids_are_distinct_live_processes(self, hard_timeout):
        with replicated_group() as group:
            pids = set()
            for shard in group.shards:
                pids.add(shard.worker_pid())
                pids.update(shard.replica_pids())
            assert len(pids) == 4  # 2 primaries + 2 replicas, all distinct
            assert group.describe()["replicas_per_shard"] == 1


# ----------------------------------------------------------------------
# Replica reads
# ----------------------------------------------------------------------
class TestReplicaReads:
    def test_reads_route_to_replicas_and_match_oracle(self, hard_timeout):
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            for batch in batches_of(interleaved_stream(48), 6):
                assert group.on_batch(batch) == oracle.on_batch(batch)
                assert_same_answers(group, oracle)
                for pattern in patterns():
                    assert group.has_matches(pattern.query_id) == oracle.has_matches(
                        pattern.query_id
                    )
            reads = sum(
                info["replicas"]["reads_served"]
                for info in group.replication_statistics()
            )
            assert reads > 0
            for info in group.replication_statistics():
                assert info["replicas"]["lag"] == [0]  # drained to the ack point

    def test_reads_fall_back_to_primary_when_replicas_exhausted(self, hard_timeout):
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(24))
            oracle.on_batch(interleaved_stream(24))
            for shard in group.shards:
                shard.kill_replica()
            # Every read between the kill and the re-seed must fail over.
            assert_same_answers(group, oracle)
            group.on_batch([add("knows", "v0", "v1")])
            oracle.on_batch([add("knows", "v0", "v1")])
            assert_same_answers(group, oracle)


# ----------------------------------------------------------------------
# Replica lifecycle: SIGKILL, detach, re-seed
# ----------------------------------------------------------------------
class TestReplicaLifecycle:
    def test_killed_replica_is_detached_and_reseeded(self, hard_timeout):
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            for index, batch in enumerate(batches_of(interleaved_stream(48), 6)):
                assert group.on_batch(batch) == oracle.on_batch(batch)
                if index == 3:
                    group.shards[0].kill_replica()
                assert_same_answers(group, oracle)
            info = group.shards[0].replication_info()
            assert info["replicas"]["deaths"] == 1
            assert info["replicas"]["reseeds"] >= 1
            assert info["replicas"]["attached"] == 1
            assert info["promotions"] == 0
            assert group.describe()["degraded_shards"] == 0

    def test_reseeded_replica_serves_correct_reads(self, hard_timeout):
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(24))
            oracle.on_batch(interleaved_stream(24))
            group.shards[0].kill_replica()
            group.shards[1].kill_replica()
            # The next acknowledged op triggers the re-seed...
            suffix = [add("likes", "v1", "v2"), add("likes", "v2", "v3")]
            group.on_batch(suffix)
            oracle.on_batch(suffix)
            # ...and the re-seeded replicas answer from the fresh snapshot.
            assert_same_answers(group, oracle)
            for shard in group.shards:
                assert len(shard.replica_pids()) == 1


# ----------------------------------------------------------------------
# Primary failover: promotion
# ----------------------------------------------------------------------
class TestPrimaryFailover:
    def test_killed_primary_promotes_freshest_replica(self, hard_timeout):
        updates = interleaved_stream(60)
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            for index, batch in enumerate(batches_of(updates, 6)):
                assert group.on_batch(batch) == oracle.on_batch(batch)
                if index in (3, 6):
                    group.shards[index % 2].kill_worker()
            assert_same_answers(group, oracle)
            description = group.describe()
            assert sum(description["shard_promotions"]) == 2
            assert sum(description["shard_respawns"]) == 0  # replicas stood in
            assert description["degraded_shards"] == 0

    def test_promotion_delivers_identical_delta_frames(self, hard_timeout):
        subscribed = [pattern.query_id for pattern in patterns()]
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        broker_o = SubscriptionBroker(oracle)
        sub_o = broker_o.subscribe("probe", subscribed)
        with replicated_group() as group:
            group.register_all(patterns())
            broker_g = SubscriptionBroker(group)
            sub_g = broker_g.subscribe("probe", subscribed)
            for index, batch in enumerate(batches_of(interleaved_stream(48), 5)):
                if index == 3:
                    group.shards[0].kill_worker()  # in-flight batch promotes
                broker_o.on_batch(batch)
                broker_g.on_batch(batch)
                assert frames_of(sub_o) == frames_of(sub_g)
            assert sum(group.describe()["shard_promotions"]) >= 1

    def test_primary_and_replica_killed_falls_back_to_respawn(self, hard_timeout):
        updates = interleaved_stream(48)
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            for index, batch in enumerate(batches_of(updates, 6)):
                assert group.on_batch(batch) == oracle.on_batch(batch)
                if index == 3:
                    group.shards[0].kill_replica()
                    group.shards[0].kill_worker()
            assert_same_answers(group, oracle)
            info = group.shards[0].replication_info()
            # The dead replica cannot be promoted; the snapshot+oplog
            # respawn path recovers instead, then replenishes the replica.
            assert info["respawns"] + info["promotions"] >= 1
            assert not info["degraded"]

    def test_promoted_group_survives_pickle_roundtrip(self, hard_timeout):
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        with replicated_group() as group:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(24))
            oracle.on_batch(interleaved_stream(24))
            group.shards[0].kill_worker()
            with pickle.loads(pickle.dumps(group)) as clone:
                assert_same_answers(clone, oracle)
                suffix = [add("knows", "v3", "v4")]
                assert clone.on_batch(suffix) == oracle.on_batch(suffix)
                for shard in clone.shards:
                    assert len(shard.replica_pids()) == 1


# ----------------------------------------------------------------------
# Rolling restarts
# ----------------------------------------------------------------------
class TestRollingRestart:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_zero_loss_across_executors(self, executor, hard_timeout):
        subscribed = [pattern.query_id for pattern in patterns()]
        oracle = ShardedEngineGroup("TRIC+", 2, executor="serial")
        oracle.register_all(patterns())
        broker_o = SubscriptionBroker(oracle)
        sub_o = broker_o.subscribe("probe", subscribed)
        replicas = 1 if executor == "process" else 0
        with ShardedEngineGroup(
            "TRIC+", 2, executor=executor, replicas=replicas
        ) as group:
            group.register_all(patterns())
            broker_g = SubscriptionBroker(group)
            sub_g = broker_g.subscribe("probe", subscribed)
            for index, batch in enumerate(batches_of(interleaved_stream(48), 5)):
                if index in (2, 5):
                    report = group.rolling_restart()
                    assert report["shards"] == 2
                    assert len(report["pause_seconds"]) == 2
                broker_o.on_batch(batch)
                broker_g.on_batch(batch)
                assert frames_of(sub_o) == frames_of(sub_g)
            assert group.rolling_restarts == 2
            assert_same_answers(group, oracle)

    def test_restart_preserves_replicas_and_counters(self, hard_timeout):
        with replicated_group() as group:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(24))
            report = group.rolling_restart()
            assert report["rolling_restarts"] == 1
            for shard in group.shards:
                info = shard.replication_info()
                assert info["restarts"] == 1
                assert info["replicas"]["attached"] == 1

    def test_double_restart_is_sequentially_idempotent(self, hard_timeout):
        with replicated_group() as group:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(24))
            first = group.rolling_restart()
            second = group.rolling_restart()
            assert first["rolling_restarts"] == 1
            assert second["rolling_restarts"] == 2

    def test_concurrent_restart_raises_typed_error(self, hard_timeout):
        with replicated_group() as group:
            group.register_all(patterns())
            group.on_batch(interleaved_stream(24))
            errors = []
            reports = []

            def restart():
                try:
                    reports.append(group.rolling_restart())
                except PersistenceError as error:
                    errors.append(error)

            threads = [threading.Thread(target=restart) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # Exactly the overlapping calls fail, each with the typed error.
            assert len(reports) >= 1
            assert len(reports) + len(errors) == 3
            for error in errors:
                assert "already in progress" in str(error)

    def test_restart_on_closed_group_raises(self, hard_timeout):
        group = replicated_group()
        group.register_all(patterns())
        group.close()
        with pytest.raises(PersistenceError, match="closed"):
            group.rolling_restart()


# ----------------------------------------------------------------------
# Sliding-window respawn budget
# ----------------------------------------------------------------------
class TestRespawnWindow:
    def test_spaced_deaths_decay_out_of_the_budget(self, hard_timeout):
        updates = interleaved_stream(36)
        with ShardedEngineGroup(
            "TRIC+",
            1,
            executor="process",
            max_respawns=1,
            respawn_window=0.4,
        ) as group:
            group.register_all(patterns())
            group.on_batch(updates[:12])
            group.shards[0].kill_worker()
            group.on_batch(updates[12:24])  # first respawn
            time.sleep(0.5)  # let the death decay past the window
            group.shards[0].kill_worker()
            group.on_batch(updates[24:])  # budget free again: second respawn
            info = group.shards[0].replication_info()
            assert info["respawns"] == 2
            assert not info["degraded"]

    def test_death_burst_still_degrades(self, hard_timeout):
        updates = interleaved_stream(36)
        with ShardedEngineGroup(
            "TRIC+",
            1,
            executor="process",
            max_respawns=1,
            respawn_window=60.0,
        ) as group:
            group.register_all(patterns())
            group.on_batch(updates[:12])
            group.shards[0].kill_worker()
            group.on_batch(updates[12:24])
            group.shards[0].kill_worker()  # burst: within the window
            group.on_batch(updates[24:])
            info = group.shards[0].replication_info()
            assert info["degraded"]
            # Degraded in-process execution still answers correctly.
            oracle = ShardedEngineGroup("TRIC+", 1, executor="serial")
            oracle.register_all(patterns())
            oracle.on_batch(updates)
            assert_same_answers(group, oracle)
