"""One round of a workload: build each part's stack, drive its ticks, tear down.

The tick pipeline is the same on every workload::

    engine.on_batch -> broker.flush -> subscription.drain -> JSON encode
    -> polled matches_of reads

Closed-loop workloads issue a tick as soon as the previous one (and its
reads) finished.  The open-loop workload issues tick ``i`` at its due
time ``start + i / rate`` or, when the loop runs late, at once.

Per tick the round records, in one list per part,

* ``tick``: from the ``on_batch`` call until the tick's frames are drained,
* ``delivery``: from the tick's due time until its frames are drained and
  encoded (in a closed loop a tick is due when it is issued),
* ``read``: each polled ``matches_of``,
* ``lateness``: how long after its due time the tick started.

Every time but the lateness is rescaled to the reference host speed by a
:class:`hostspeed.HostClock`, which probes the host before the set-up,
after it, between ticks every ``PROBE_EVERY_S`` seconds (in the open loop
only while the next tick has ``PROBE_SLACK_S`` to spare) and after the
last tick.  The probes run outside every timed window.  The lateness
stays in wall-clock seconds: it tells whether the open loop kept its
schedule.

Work counts come from the public results (``BatchReport``, ``BrokerTick``,
drained frames, ``describe()``).  With a tracer, the round also shadows a
few public methods of the objects it built (edge views, journal appends,
snapshots, the shard group's ``on_batch``) to time and count them.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from repro import MatchDelta, SubscriptionBroker, create_sharded_engine
from repro.pubsub.broker import replay_deltas

from hostspeed import HostClock
from inputs import Inputs, Part
from oracle import answered_queries, transcript_digest
from samples import Latency

#: serve_durable stack shape.
SHARDS = 2
REPLICAS = 1
SNAPSHOT_EVERY = 100
#: Slack an open-loop tick must have left before its due time for a host
#: probe to run in it.
PROBE_SLACK_S = 0.02


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait until every child process has exited; kill stragglers."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            return
        time.sleep(0.02)


@dataclass
class RoundResult:
    setup_s: float = 0.0
    #: Latency samples, one list per part.
    #: Latency summaries, one per part.  Only summaries are kept, so a
    #: run's own memory does not grow with the number of rounds.
    tick: List[Latency] = field(default_factory=list)
    delivery: List[Latency] = field(default_factory=list)
    read: List[Latency] = field(default_factory=list)
    #: Open-loop lateness samples, one list per part.
    lateness_s: List[List[float]] = field(default_factory=list)
    #: Seconds of ticks plus polled reads, and the updates they applied.
    busy_s: float = 0.0
    updates: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    replay_ok: bool = True
    backlog_grew: bool = False
    parent_rss_mb: float = 0.0
    worker_rss_mb: float = 0.0
    counts: Counter = field(default_factory=Counter)
    #: Host-speed multiplier of every clock segment (see ``hostspeed``).
    speed_factors: List[float] = field(default_factory=list)


def _instrument(tracer, engine, durable: bool, counts: Counter) -> None:
    """Shadow public methods of the built stack with counting spans."""
    if not durable:
        views = engine.views
        for method in ("apply_additions", "apply_deletions"):
            tracer.wrap(views, method, "views.apply")
            traced = getattr(views, method)

            def counted(edges, _traced=traced):
                changed = _traced(edges)
                counts["views.rows"] += sum(len(rows) for rows in changed.values())
                return changed

            setattr(views, method, counted)
        return
    journal = engine.journal
    tracer.wrap(journal, "append_batch", "journal.append_batch")
    traced_append = journal.append_batch

    def append_batch(seq, updates):
        before = journal.size_bytes
        traced_append(seq, updates)
        counts["journal.records"] += 1
        counts["journal.bytes"] += journal.size_bytes - before

    journal.append_batch = append_batch
    group = engine.engine
    tracer.wrap(group, "on_batch", "sharding.on_batch")
    tracer.wrap(engine, "write_snapshot", "durable.write_snapshot")
    traced_snapshot = engine.write_snapshot

    def write_snapshot():
        # The snapshot pickles the group: hide the shadowing method from it.
        shadow = vars(group).pop("on_batch")
        try:
            traced_snapshot()
        finally:
            group.on_batch = shadow
        counts["durable.snapshots"] += 1

    engine.write_snapshot = write_snapshot


def _describe_counts(engine, durable: bool, counts: Counter) -> None:
    """End-of-part structure counts from ``describe()``."""
    if durable:
        group = engine.engine
        replication = group.replication_statistics()
        counts["replication.reads_by_replica"] += sum(
            info["replicas"]["reads_served"] for info in replication if info["replicas"]
        )
        counts["replication.promotions"] += sum(info["promotions"] for info in replication)
        description = engine.describe()
        shards = description["per_shard"]
        seconds = description["shard_batch_seconds"]
        counts["sharding.shard_compute_s"] += sum(seconds)
        counts["sharding.shard_compute_max_s"] += max(seconds)
        counts["sharding.shard_compute_min_s"] += min(seconds)
        counts["sharding.shard_batches"] += sum(description["shard_batches"])
        counts["sharding.respawns"] += sum(description["shard_respawns"])
    else:
        shards = [engine.describe()]
    for shard in shards:
        counts["core.tries"] += shard["tries"]
        counts["core.trie_nodes"] += shard["trie_nodes"]
        counts["answers.materialized_rows"] += shard.get("materialized_answer_rows", 0)
        counts["interning.live_ids"] += shard["interner"]["live_ids"]


def _replay_matches(frames: List[MatchDelta], answers: Dict[str, list], watched: List[str]) -> bool:
    """Folded frames equal each watched query's final answers."""
    state = replay_deltas(frames)
    for query_id in watched:
        final = replay_deltas([MatchDelta(query_id, tuple(answers[query_id]), snapshot=True)])
        if state.get(query_id, set()) != final.get(query_id, set()):
            return False
    return True


def _build(part: Part, inputs: Inputs, workdir: Path):
    """Build, register and subscribe one part's stack.

    Returns ``(engine, broker, subscription, initial frames)``.
    """
    config = inputs.workload
    if config.stack == "durable":
        engine = create_sharded_engine(
            "TRIC+",
            SHARDS,
            executor="process",
            replicas=REPLICAS,
            journal_dir=str(workdir),
            snapshot_every=SNAPSHOT_EVERY,
            journal_fsync=True,
        )
    else:
        engine = create_sharded_engine("TRIC+")
    try:
        engine.register_all(part.queries)
        broker = SubscriptionBroker(
            engine, default_policy=config.policy, default_capacity=config.capacity
        )
        subscription = broker.subscribe("bench", part.watched)
        frames: List[MatchDelta] = subscription.drain()
    except BaseException:
        _close(engine)
        raise
    return engine, broker, subscription, frames


def _worker_pids(engine) -> List[int]:
    """Pids of the shard and replica workers behind a durable stack."""
    group = engine.engine
    pids = [shard.worker_pid() for shard in group.shards]
    pids += [pid for shard in group.shards for pid in shard.replica_pids()]
    return [pid for pid in pids if pid]


def _close(engine) -> None:
    close = getattr(engine, "close", None)
    if close is not None:
        close()
    reap_children()


def _build_timed(part: Part, inputs: Inputs, workdir: Path):
    """Build one part's stack (see :func:`_build`) under a fresh host clock.

    Returns ``(stack, clock, set-up seconds)``; the set-up is the clock's
    segment 0.
    """
    clock = HostClock()
    start = perf_counter()
    stack = _build(part, inputs, workdir)
    setup_s = perf_counter() - start
    clock.mark()
    return stack, clock, setup_s


def time_set_up(inputs: Inputs, workdir: Path) -> float:
    """Seconds to build every part's stack once (teardown not timed)."""
    total = 0.0
    for number, part in enumerate(inputs.parts):
        part_dir = workdir / f"setup{number}"
        gc.collect()
        stack, clock, setup_s = _build_timed(part, inputs, part_dir)
        total += setup_s * clock.factor(0)
        _close(stack[0])
        shutil.rmtree(part_dir, ignore_errors=True)
    return total


def _run_part(part: Part, inputs: Inputs, tracer, workdir: Path, result: RoundResult, first_tick: int) -> None:
    config = inputs.workload
    durable = config.stack == "durable"
    counts = result.counts
    stack, clock, setup_s = _build_timed(part, inputs, workdir)
    engine, broker, subscription, frames = stack
    try:
        if tracer.enabled:
            _instrument(tracer, engine, durable, counts)

        notified: List[List[str]] = []
        lateness: List[float] = []
        if config.rate:
            result.lateness_s.append(lateness)
        #: Per tick: (clock segment, tick, delivery, busy, reads), unscaled.
        measured: List[tuple] = []
        interval = 1.0 / config.rate if config.rate else 0.0
        base = perf_counter() + 0.05
        for index, chunk in enumerate(part.ticks):
            due = None
            if interval:
                due = base + index * interval
                if clock.due() and due - perf_counter() > PROBE_SLACK_S:
                    clock.mark()
                now = perf_counter()
                if now < due:
                    time.sleep(due - now)
                else:
                    counts["gen.late_ticks"] += 1
            elif clock.due():
                clock.mark()
            reads: List[float] = []
            with tracer.tick(first_tick + index):
                start = perf_counter()
                try:
                    with tracer.span("engine.on_batch"):
                        report = engine.on_batch(chunk)
                    with tracer.span("broker.flush"):
                        flushed = broker.flush(report)
                    with tracer.span("subscription.drain"):
                        delivered = subscription.drain()
                    drained = perf_counter()
                    with tracer.span("serve.encode"):
                        encoded = [json.dumps(d.as_dict(), sort_keys=True) for d in delivered]
                    done = perf_counter()
                except Exception as error:  # a failed tick is counted, not fatal
                    result.attempted += 1
                    result.failed += 1
                    result.errors.append(repr(error))
                    notified.append([])
                    continue
                for query_id in part.polls_after(index):
                    read_start = perf_counter()
                    try:
                        with tracer.span("answers.matches_of"):
                            rows = engine.matches_of(query_id)
                    except Exception as error:  # a failed read is counted, not fatal
                        result.failed += 1
                        result.errors.append(repr(error))
                        continue
                    reads.append(perf_counter() - read_start)
                    counts["answers.rows_read"] += len(rows)
            due = start if due is None else due
            lateness.append(max(0.0, start - due))
            measured.append(
                (clock.segment, drained - start, done - due, done - start + sum(reads), reads)
            )
            result.updates += len(chunk)
            result.attempted += 1 + part.polls_per_tick + len(delivered)
            result.failed += flushed.dropped
            notified.append(sorted(report))
            frames.extend(delivered)
            counts["core.notified"] += len(report)
            counts["core.affected"] += len(report.affected or ())
            counts["broker.queries_flushed"] += flushed.flushed
            counts["broker.queries_skipped"] += flushed.skipped
            counts["broker.deltas"] += len(flushed.deltas)
            counts["broker.frames"] += len(delivered)
            counts["broker.coalesced"] += flushed.coalesced
            counts["serve.frame_bytes"] += sum(len(text.encode("utf-8")) for text in encoded)
            if durable and tracer.enabled:
                lags = [
                    lag
                    for info in engine.engine.replication_statistics()
                    if info["replicas"]
                    for lag in info["replicas"]["lag"]
                ]
                counts["replication.max_lag_ops"] = max(
                    [counts["replication.max_lag_ops"], *lags]
                )

        clock.mark()
        result.setup_s += setup_s * clock.factor(0)
        factors = [clock.factor(segment) for segment in range(clock.segment)]
        result.tick.append(Latency.of([factors[seg] * tick for seg, tick, _, _, _ in measured]))
        result.delivery.append(
            Latency.of([factors[seg] * delivery for seg, _, delivery, _, _ in measured])
        )
        result.read.append(
            Latency.of([factors[seg] * read for seg, _, _, _, reads in measured for read in reads])
        )
        result.busy_s += sum(factors[seg] * busy for seg, _, _, busy, _ in measured)
        result.speed_factors.extend(factors)
        if tracer.enabled:
            _describe_counts(engine, durable, counts)
        answers = {qid: engine.matches_of(qid) for qid in answered_queries(part)}
        result.digests.append(transcript_digest(notified, answers))
        result.replay_ok &= _replay_matches(frames, answers, part.watched)
        if durable:
            result.worker_rss_mb = max(
                result.worker_rss_mb, sum(vm_hwm_mb(pid) for pid in _worker_pids(engine))
            )
    finally:
        _close(engine)


def backlog_grew(lateness_s: List[float], interval_s: float) -> bool:
    """Whether the last quarter of ticks ran later than the first quarter
    by more than two tick intervals (the generator fell behind for good)."""
    quarter = len(lateness_s) // 4
    if quarter == 0:
        return False
    first = sum(lateness_s[:quarter]) / quarter
    last = sum(lateness_s[-quarter:]) / quarter
    return last > first + 2 * interval_s


def run_round(inputs: Inputs, tracer, workdir: Path) -> RoundResult:
    """Run every part of ``inputs`` once on freshly built stacks."""
    result = RoundResult()
    first_tick = 0
    for number, part in enumerate(inputs.parts):
        part_dir = workdir / f"part{number}"
        gc.collect()
        try:
            _run_part(part, inputs, tracer, part_dir, result, first_tick)
        finally:
            shutil.rmtree(part_dir, ignore_errors=True)
        first_tick += len(part.ticks)
    if inputs.workload.rate:
        interval = 1.0 / inputs.workload.rate
        result.backlog_grew = any(backlog_grew(part, interval) for part in result.lateness_s)
    result.parent_rss_mb = vm_hwm_mb()
    return result
