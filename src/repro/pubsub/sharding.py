"""Sharded engine groups: partition the query database across engines.

One engine instance indexes the whole query database; a
:class:`ShardedEngineGroup` partitions it across ``N`` independent engine
instances instead — the sharding step of a serving architecture (a broker
that fans work out to index shards and merges the per-shard results).  The
group itself implements the full
:class:`~repro.core.engine.ContinuousEngine` interface, so the replay
harness, the benchmarks and the :class:`~repro.pubsub.broker.SubscriptionBroker`
treat it exactly like a single engine:

* :meth:`register` assigns each query to one shard — ``hash`` assignment
  (stable CRC of the query id) balances blindly; ``label`` assignment
  routes a query to the shard already owning most of its edge labels,
  which clusters structurally related queries (maximising trie sharing
  inside each shard) and narrows the fan-out below,
* stream updates fan out only to the shards whose queries use the edge's
  label (an engine without the label ignores the update anyway — the
  group skips even handing it over), executed by an *executor*:
  ``serial`` (in-process loop, the default) or ``process`` (each shard
  lives in its own single-worker
  :class:`~concurrent.futures.ProcessPoolExecutor` and receives picklable
  command/reply frames — isolation, supervision and replicas, since the
  shard engines share nothing),
* notifications and affected sets merge back deterministically as one
  :class:`~repro.core.engine.BatchReport` (shard order, set semantics),
  answers (``matches_of`` routes to the owning shard) and maintained
  answer-delta sources come back through the group, and
  :meth:`describe` / :meth:`shard_statistics` expose per-shard metrics
  including the executor mode and per-shard batch latency.

Because every query lives in exactly one shard — and a shard that *gains*
an edge label through a mid-stream registration is backfilled from the
group's live-edge history (recorded under the same key-matching retention
rule the unsharded registry applies) — the group's answers are
byte-identical to an unsharded engine's for any shard count *and any
executor*, whether queries are registered up front or while the stream is
running.  The one deliberate divergence: a pattern whose *literal-endpoint*
key is first registered after matching edges arrived reads those edges from
the backfill on a fresh shard, where a single engine's new (empty) view
would have dropped them — the group errs toward the oracle's semantics
there.

A group with ``executor="process"`` holds OS resources;
call :meth:`close` (or use the group as a context manager) when done.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import zlib
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.engine import BatchReport, ContinuousEngine, MaintainedAnswerSource
from ..graph.elements import Edge, Update, UpdateKind
from ..graph.errors import EngineError, PersistenceError, ShardUnavailableError
from ..persistence.replication import (
    WORKER_FAILURES,
    ReplicaSet,
    shard_op,
    silent_backfill,
    spawn_worker_pool,
    worker_call,
)
from ..query.pattern import QueryGraphPattern
from ..query.terms import EdgeKey, candidate_keys_for_edge

__all__ = ["ShardedEngineGroup", "SHARD_EXECUTORS", "silent_backfill"]

#: A zero-argument engine factory (one call per shard).
EngineFactory = Callable[[], ContinuousEngine]

#: Supported fan-out executors.
SHARD_EXECUTORS = ("serial", "process")


class _ProcessShardProxy:
    """Supervised, engine-shaped handle to a shard in its own worker process.

    Each proxy owns a single-worker
    :class:`~concurrent.futures.ProcessPoolExecutor`, so every command it
    submits lands on the same long-lived engine instance.  The group fans a
    batch out by *starting* every relevant shard's command first and
    collecting the replies afterwards — the workers run concurrently.

    **Supervision.**  The proxy is the shard's supervisor: a worker death
    (``SIGKILL``, OOM, crash — surfacing as :class:`BrokenProcessPool` on
    the command channel) is recovered, not propagated.  The proxy keeps a
    *recovery source*: the last worker-state snapshot it pulled (every
    ``snapshot_every`` state-changing commands) plus the ordered log of
    state-changing commands acknowledged since.  Recovery respawns the
    pool with bounded exponential backoff, restores the snapshot inside
    the fresh worker, replays the command log, and re-runs the in-flight
    command **exactly once** — sound because the dead worker's partial
    state died with it, so restored-state + one re-run equals a worker
    that never died (command results and worker state live in the same
    address space: they are lost, or delivered, together).  After
    ``max_respawns`` worker deaths the proxy *degrades gracefully*: it
    rebuilds the engine in-process from the same recovery source and runs
    all further commands serially in the parent — slower, but alive.

    **Replication.**  With ``replicas > 0`` the proxy additionally owns a
    :class:`~repro.persistence.replication.ReplicaSet`: replica workers
    bootstrapped from the primary's snapshot that tail its
    acknowledged-ops log.  Reads (``matches_of``, ``has_matches``,
    ``satisfied_queries``, ``describe``) round-robin across the replicas
    (drained to the acknowledged sequence first, so answers stay
    byte-identical), failing over to the primary when no replica can
    serve.  A dead primary *promotes* the freshest replica instead of
    respawning from the recovery source — the promoted worker already
    holds every acknowledged op, so only the in-flight batch is re-run
    (exactly once, by the same supervision path as before).

    ``answer_delta_source`` always returns ``None``: the maintained answer
    relation lives in the worker's address space, so delta consumers fall
    back to exact ``matches_of`` snapshot diffs over the command channel.
    """

    def __init__(
        self,
        engine_name: str,
        engine_kwargs: Dict[str, object],
        injective: bool,
        *,
        snapshot_every: Optional[int] = 32,
        max_respawns: int = 3,
        replicas: int = 0,
        respawn_window: Optional[float] = 60.0,
    ) -> None:
        self.name = engine_name
        self._engine_kwargs = dict(engine_kwargs)
        self._injective = injective
        self._query_ids: List[str] = []
        #: Worker snapshot cadence in state-changing commands (None: never;
        #: the command log then spans the shard's whole life).
        self.snapshot_every = snapshot_every
        self.max_respawns = max_respawns
        #: Sliding window (seconds) over which worker deaths count against
        #: ``max_respawns`` — only death *bursts* degrade the shard.
        #: ``None`` restores the lifetime cap.
        self.respawn_window = respawn_window
        self.respawns = 0
        self.promotions = 0
        self.restarts = 0
        self.replayed_ops = 0
        self.degraded = False
        self._respawn_times: List[float] = []
        #: In-process engine once degraded (None while a worker serves).
        self._local: Optional[ContinuousEngine] = None
        #: Last worker-state snapshot blob pulled from the worker, and the
        #: acknowledged sequence it covers.
        self._snapshot_blob: Optional[bytes] = None
        self._snapshot_seq = 0
        #: Monotonic sequence of acknowledged state-changing commands —
        #: the shard's replication/journal position.
        self._seq = 0
        #: Acknowledged state-changing commands since that snapshot, as
        #: ``(seq, op, args)`` — the recovery source tail and the
        #: replication stream.
        self._ops_log: List[Tuple[int, str, Tuple]] = []
        self._closed = False
        self._pool = self._spawn_pool()
        self.replica_target = max(0, int(replicas))
        self._replicas: Optional[ReplicaSet] = None
        if self.replica_target:
            self._replicas = ReplicaSet(
                engine_name,
                engine_kwargs,
                injective,
                self.replica_target,
                snapshot_provider=self._replica_seed,
            )

    def _spawn_pool(self) -> ProcessPoolExecutor:
        return spawn_worker_pool(self.name, self._engine_kwargs, self._injective)

    def _replica_seed(self) -> Tuple[Optional[bytes], int]:
        """Seed for a new replica: the primary's snapshot at its sequence."""
        if self._local is not None:
            return self._local.snapshot(), self._seq
        blob = self._pool.submit(worker_call, "snapshot", ()).result()
        return blob, self._seq

    # -- command channel (supervised) ------------------------------------
    def _execute(self, op: str, args: Tuple):
        """Run one command, recovering from worker death until it lands."""
        while True:
            if self._local is not None:
                return shard_op(self._local, op, args)
            if self._closed:
                raise ShardUnavailableError(
                    f"process shard {self.name!r} is closed"
                )
            try:
                return self._pool.submit(worker_call, op, args).result()
            except WORKER_FAILURES:
                self._recover()

    def _call(self, op: str, *args):
        return self._execute(op, args)

    def _record_op(self, op: str, args: Tuple) -> None:
        """Log one acknowledged state-changing command and replicate it.

        Ops reach the replicas strictly *after* the primary acknowledged
        them — the invariant promotion relies on: a drained replica equals
        the primary's acknowledged state, never more.
        """
        self._seq += 1
        self._ops_log.append((self._seq, op, args))
        if self._replicas is not None:
            self._replicas.forward(self._seq, op, args)
            self._replicas.replenish()
        self._maybe_worker_snapshot()

    def _mutate(self, op: str, *args):
        """Run one state-changing command and log it once acknowledged."""
        result = self._execute(op, args)
        if self._local is None:
            self._record_op(op, args)
        return result

    def start_batch(self, updates: Sequence[Update]) -> Future:
        """Send a batch command without waiting (the concurrent fan-out).

        Pair with :meth:`finish_batch`, which collects the reply *and*
        supervises: a worker that died mid-batch is recovered there and
        the batch re-run exactly once.
        """
        updates = list(updates)
        if self._local is not None:
            future: Future = Future()
            try:
                future.set_result(shard_op(self._local, "batch", (updates,)))
            except Exception as error:
                future.set_exception(error)
            return future
        if self._closed:
            raise ShardUnavailableError(f"process shard {self.name!r} is closed")
        try:
            return self._pool.submit(worker_call, "batch", (updates,))
        except WORKER_FAILURES:
            # The pool broke between batches (e.g. an idle-time SIGKILL
            # detected at submission): recover, then hand out a future
            # against the healed worker.
            self._recover()
            return self.start_batch(updates)

    def finish_batch(
        self, future: Future, updates: Sequence[Update]
    ) -> Tuple[BatchReport, FrozenSet[str], float]:
        """Collect a :meth:`start_batch` reply, recovering a dead worker.

        The exactly-once argument: the worker's reply and its state mutation
        live in the same process, so either both survived (reply collected,
        batch logged) or both died (worker restored to pre-batch state from
        snapshot + log, batch re-run once via the supervised channel).
        """
        try:
            result = future.result()
        except WORKER_FAILURES:
            self._recover()
            result = self._execute("batch", (list(updates),))
        if self._local is None:
            self._record_op("batch", (list(updates),))
        return result

    # -- supervision -----------------------------------------------------
    def _recover(self) -> None:
        """Promote a replica, else respawn + restore (bounded backoff),
        else degrade."""
        self._pool.shutdown(wait=False)
        if self._replicas is not None and self._try_promote():
            return
        while True:
            if self.respawn_window is not None:
                # Sliding-window budget: deaths older than the window no
                # longer count, so a long-lived deployment only degrades
                # on a death *burst*, not on slow attrition.
                now = time.monotonic()
                self._respawn_times = [
                    stamp
                    for stamp in self._respawn_times
                    if now - stamp < self.respawn_window
                ]
            if len(self._respawn_times) >= self.max_respawns:
                break
            self.respawns += 1
            self._respawn_times.append(time.monotonic())
            # 50ms, 100ms, 200ms, ... capped — enough to ride out a
            # transient (OOM-killer sweep, cgroup hiccup) without turning
            # a hard failure into a long hang.
            time.sleep(min(1.0, 0.05 * (2 ** (len(self._respawn_times) - 1))))
            try:
                self._pool = self._spawn_pool()
                self._restore_worker()
                return
            except WORKER_FAILURES:
                self._pool.shutdown(wait=False)
        self._degrade()

    def _try_promote(self) -> bool:
        """Fail the dead primary over to the freshest drained replica."""
        while True:
            promoted = self._replicas.promote()
            if promoted is None:
                return False
            behind = [
                entry for entry in self._ops_log if entry[0] > promoted.applied_seq
            ]
            if len(behind) != self._seq - promoted.applied_seq:
                # The ops bridging the replica's position to the current
                # sequence are no longer in the log (cleared by a worker
                # snapshot the replica predates) — it cannot be brought
                # current; try the next-freshest one.
                promoted.pool.shutdown(wait=False)
                continue
            try:
                for _seq, op, args in behind:
                    promoted.pool.submit(worker_call, op, args).result()
            except WORKER_FAILURES:
                promoted.pool.shutdown(wait=False)
                continue
            self._pool = promoted.pool
            self.promotions += 1
            self.replayed_ops += len(behind)
            self._refresh_recovery_source()
            self._replicas.replenish()
            return True

    def _refresh_recovery_source(self) -> None:
        """Re-anchor the recovery source on the current primary's state."""
        try:
            blob = self._pool.submit(worker_call, "snapshot", ()).result()
        except WORKER_FAILURES:
            # Primary died during the pull: the old source still covers
            # every acknowledged op; the next command recovers again.
            return
        self._snapshot_blob = blob
        self._snapshot_seq = self._seq
        self._ops_log.clear()

    def _restore_worker(self) -> None:
        """Rebuild a fresh worker's engine from snapshot + command log."""
        if self._snapshot_blob is not None:
            self._pool.submit(
                worker_call, "restore", (self._snapshot_blob,)
            ).result()
        for _seq, op, args in self._ops_log:
            self._pool.submit(worker_call, op, args).result()
        self.replayed_ops += len(self._ops_log)

    def _degrade(self) -> None:
        """Fall back to serial in-process execution (worker budget spent)."""
        if self._snapshot_blob is not None:
            engine = ContinuousEngine.restore(self._snapshot_blob)
        else:
            from ..engines import create_engine

            engine = create_engine(
                self.name, injective=self._injective, **self._engine_kwargs
            )
        for _seq, op, args in self._ops_log:
            shard_op(engine, op, args)
        self.replayed_ops += len(self._ops_log)
        self._ops_log.clear()
        self._local = engine
        self.degraded = True
        if self._replicas is not None:
            # Degraded shards run in the parent; replicas of a worker that
            # no longer exists serve no reads.
            self._replicas.close()
            self._replicas = None

    def _maybe_worker_snapshot(self) -> None:
        if self.snapshot_every is None or len(self._ops_log) < self.snapshot_every:
            return
        try:
            blob = self._pool.submit(worker_call, "snapshot", ()).result()
        except WORKER_FAILURES:
            # Worker died during the snapshot pull: keep the old recovery
            # source intact; the next command notices and recovers.
            return
        self._snapshot_blob = blob
        self._snapshot_seq = self._seq
        self._ops_log.clear()

    def restart(self) -> float:
        """One rolling-restart step: drain, snapshot, respawn, tail-replay,
        resume.  Returns the pause in seconds.

        The synchronous snapshot pull *is* the drain (the command channel
        is FIFO), and because it runs between batches the snapshot sits
        exactly at the acknowledged sequence — the replay tail is empty by
        construction and no ``MatchDelta`` frame is in flight.  The
        replacement worker is seeded *before* the old one is shut down, so
        a failed restart leaves the shard serving on the old worker.
        """
        start = time.perf_counter()
        blob = self._execute("snapshot", ())
        if self._local is not None:
            self._local = ContinuousEngine.restore(blob)
            self.restarts += 1
            return time.perf_counter() - start
        pool = self._spawn_pool()
        try:
            pool.submit(worker_call, "restore", (blob,)).result()
        except WORKER_FAILURES as error:
            pool.shutdown(wait=False)
            raise PersistenceError(
                f"rolling restart of shard {self.name!r} could not seed the "
                "replacement worker; the old worker kept serving"
            ) from error
        old_pool = self._pool
        self._pool = pool
        old_pool.shutdown(wait=True)
        self._snapshot_blob = blob
        self._snapshot_seq = self._seq
        self._ops_log.clear()
        self.restarts += 1
        return time.perf_counter() - start

    def worker_pid(self) -> Optional[int]:
        """OS pid of the live worker process (``None`` once degraded)."""
        if self._local is not None:
            return None
        return self._call("pid")

    def kill_worker(self) -> None:
        """SIGKILL the primary worker process (fault injection).

        The next command on this proxy observes the death and triggers
        supervised recovery — promotion of the freshest replica when one
        is attached, respawn + restore otherwise — exactly the path a real
        worker crash takes.
        """
        pid = self.worker_pid()
        if pid is not None:
            os.kill(pid, signal.SIGKILL)

    def replica_pids(self) -> List[int]:
        """OS pids of the live replica workers (empty without replicas)."""
        if self._replicas is None:
            return []
        return self._replicas.pids()

    def kill_replica(self, index: int = 0) -> None:
        """SIGKILL one replica worker (fault injection).

        The death is observed at the replica's next interaction (a read or
        a forwarded op); the replica is detached and a replacement is
        re-seeded from a fresh primary snapshot.
        """
        if self._replicas is None:
            raise EngineError(f"shard {self.name!r} has no replicas")
        self._replicas.kill(index)

    def replication_info(self) -> Dict[str, object]:
        """Proxy-side replication counters (cheap: no worker IPC)."""
        return {
            "respawns": self.respawns,
            "promotions": self.promotions,
            "restarts": self.restarts,
            "degraded": self.degraded,
            "seq": self._seq,
            "replicas": (
                None
                if self._replicas is None
                else self._replicas.statistics(self._seq)
            ),
        }

    # -- the engine surface the group needs ------------------------------
    @property
    def num_queries(self) -> int:
        return len(self._query_ids)

    @property
    def queries(self) -> Tuple[str, ...]:
        """Ids registered on this shard (patterns live in the worker)."""
        return tuple(self._query_ids)

    def register(self, pattern: QueryGraphPattern) -> None:
        self._mutate("register", pattern)
        self._query_ids.append(pattern.query_id)

    def backfill(self, updates: Sequence[Update]) -> None:
        self._mutate("backfill", list(updates))

    def on_update(self, update: Update) -> BatchReport:
        return self.on_batch([update])

    def on_batch(self, updates: Sequence[Update]) -> BatchReport:
        updates = list(updates)
        report, _, _ = self.finish_batch(self.start_batch(updates), updates)
        return report

    def _read(self, op: str, *args):
        """Serve a read from a replica when one can, else from the primary.

        The replica is drained to the acknowledged sequence first, so its
        answer is byte-identical to the primary's; a replica that dies is
        detached and the read fails over (ultimately to the primary).
        """
        if self._replicas is not None and self._local is None and not self._closed:
            served, result = self._replicas.read(op, args)
            if served:
                return result
            self._replicas.replenish()
        return self._execute(op, args)

    def matches_of(self, query_id: str) -> List[Dict[str, str]]:
        return self._read("matches_of", query_id)

    def has_matches(self, query_id: str) -> bool:
        return self._read("has_matches", query_id)

    def answer_delta_source(self, query_id: str) -> None:
        return None

    def satisfied_queries(self) -> FrozenSet[str]:
        return self._read("satisfied")

    def describe(self) -> Dict[str, object]:
        info = dict(self._read("describe"))
        info["supervision"] = {
            "respawns": self.respawns,
            "promotions": self.promotions,
            "restarts": self.restarts,
            "replayed_ops": self.replayed_ops,
            "degraded": self.degraded,
            "ops_logged": len(self._ops_log),
            "worker_snapshot": self._snapshot_blob is not None,
            "seq": self._seq,
            "replicas": (
                None
                if self._replicas is None
                else self._replicas.statistics(self._seq)
            ),
        }
        return info

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._replicas is not None:
            self._replicas.close()
        self._pool.shutdown()

    # -- pickling (group snapshots) --------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Pickle as the worker engine's snapshot blob plus proxy config.

        The pool is process-local and cannot travel; what a snapshot of a
        sharded group must preserve is the *engine state* inside each
        worker.  Pulling it here is what lets a whole process-executor
        group be snapshotted by the durability layer like any engine.
        """
        if self._local is not None:
            blob = self._local.snapshot()
        else:
            blob = self._call("snapshot")
        return {
            "name": self.name,
            "engine_kwargs": self._engine_kwargs,
            "injective": self._injective,
            "query_ids": list(self._query_ids),
            "snapshot_every": self.snapshot_every,
            "max_respawns": self.max_respawns,
            "respawn_window": self.respawn_window,
            "replicas": self.replica_target,
            "blob": blob,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Unpickle by spawning a fresh worker restored from the blob."""
        self.name = state["name"]
        self._engine_kwargs = dict(state["engine_kwargs"])
        self._injective = state["injective"]
        self._query_ids = list(state["query_ids"])
        self.snapshot_every = state["snapshot_every"]
        self.max_respawns = state["max_respawns"]
        self.respawn_window = state.get("respawn_window", 60.0)
        self.replica_target = int(state.get("replicas", 0))
        self.respawns = 0
        self.promotions = 0
        self.restarts = 0
        self.replayed_ops = 0
        self.degraded = False
        self._respawn_times = []
        self._local = None
        self._snapshot_blob = state["blob"]
        self._snapshot_seq = 0
        self._seq = 0
        self._ops_log = []
        self._closed = False
        self._pool = self._spawn_pool()
        self._restore_worker()
        self._replicas = None
        if self.replica_target:
            # Replicas re-seed from the restored primary's state.
            self._replicas = ReplicaSet(
                self.name,
                self._engine_kwargs,
                self._injective,
                self.replica_target,
                snapshot_provider=self._replica_seed,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_ProcessShardProxy({self.name!r}, queries={self.num_queries})"


class ShardedEngineGroup(ContinuousEngine):
    """N independent engine instances behind the single-engine interface.

    Parameters
    ----------
    engine:
        Engine name resolved through :data:`repro.engines.ENGINE_FACTORIES`
        (e.g. ``"TRIC+"``), or a zero-argument factory callable (one call
        per shard; not supported by the ``process`` executor, whose workers
        rebuild the engine from its registry name).
    num_shards:
        Number of independent shards (``>= 1``).
    assignment:
        ``"hash"`` (stable id hash, blind balance) or ``"label"``
        (label-affinity routing, clusters queries sharing edge labels).
    executor:
        How a batch fans out to the relevant shards: ``"serial"`` (one
        shard after another in-process — zero overhead, the default) or
        ``"process"`` (each shard is a separate worker process driven over
        picklable command frames — fault isolation, supervision and
        replicas at the cost of IPC per batch).  Answers are
        byte-identical across executors.
    engine_kwargs:
        Extra keyword arguments forwarded to the named engine's factory
        (ignored when ``engine`` is already a callable).
    injective:
        Injective (isomorphism) answer semantics, forwarded to the shards.
    worker_snapshot_every:
        Process executor only: pull a recovery snapshot from each worker
        every this many state-changing commands (``None`` disables, making
        recovery replay the shard's whole command history).  The snapshot
        plus the command log since it is what a respawned worker is
        restored from.
    max_respawns:
        Process executor only: worker deaths a shard survives via
        respawn + restore before degrading gracefully to in-process serial
        execution.
    replicas:
        Process executor only: replica workers per shard.  Replicas
        bootstrap from the primary's snapshot, tail its acknowledged-ops
        log, absorb read traffic (``matches_of`` / ``has_matches`` /
        ``describe`` round-robin across them, byte-identical answers), and
        stand in for a dead primary via promotion.
    respawn_window:
        Process executor only: sliding window in seconds over which worker
        deaths count against ``max_respawns`` — a shard only degrades on a
        death *burst* inside the window, not on lifetime attrition.
        ``None`` restores the lifetime cap.
    """

    def __init__(
        self,
        engine: "str | EngineFactory" = "TRIC+",
        num_shards: int = 2,
        *,
        assignment: str = "hash",
        executor: str = "serial",
        injective: bool = False,
        engine_kwargs: Optional[Dict[str, object]] = None,
        worker_snapshot_every: Optional[int] = 32,
        max_respawns: int = 3,
        replicas: int = 0,
        respawn_window: Optional[float] = 60.0,
    ) -> None:
        super().__init__(injective=injective)
        if num_shards < 1:
            raise EngineError("num_shards must be at least 1")
        if assignment not in ("hash", "label"):
            raise EngineError(
                f"unknown shard assignment {assignment!r}; options: hash, label"
            )
        if executor not in SHARD_EXECUTORS:
            raise EngineError(
                f"unknown shard executor {executor!r}; options: "
                + ", ".join(SHARD_EXECUTORS)
            )
        if replicas < 0:
            raise EngineError("replicas must be non-negative")
        if replicas and executor != "process":
            raise EngineError(
                "replicas require the process executor (a replica is a "
                "worker process tailing its primary's op log)"
            )
        self.assignment = assignment
        self.executor = executor
        self.replicas_per_shard = replicas
        self.rolling_restarts = 0
        self._restart_lock: Optional[threading.Lock] = threading.Lock()
        kwargs = dict(engine_kwargs or {})
        if callable(engine):
            if executor == "process":
                raise EngineError(
                    "the process executor needs a named engine (its workers "
                    "rebuild the engine from the registry); pass the engine "
                    "name plus engine_kwargs instead of a factory callable"
                )
            factory = engine
        else:
            from ..engines import create_engine

            kwargs.setdefault("injective", injective)
            engine_name = engine
            factory = lambda: create_engine(engine_name, **kwargs)  # noqa: E731
        if executor == "process":
            # An explicit injective in engine_kwargs must win exactly as it
            # does on the in-process path (kwargs.setdefault above), so the
            # executors build semantically identical shard engines.
            worker_injective = bool(kwargs.get("injective", injective))
            worker_kwargs = {k: v for k, v in kwargs.items() if k != "injective"}
            self.shards: List[ContinuousEngine] = [
                _ProcessShardProxy(
                    engine,
                    worker_kwargs,
                    worker_injective,
                    snapshot_every=worker_snapshot_every,
                    max_respawns=max_respawns,
                    replicas=replicas,
                    respawn_window=respawn_window,
                )
                for _ in range(num_shards)
            ]
        else:
            self.shards = [factory() for _ in range(num_shards)]
        self.name = f"{self.shards[0].name}x{num_shards}"
        self._closed = False
        #: query id -> owning shard index.
        self._owner: Dict[str, int] = {}
        #: per-shard query ids (the conservative affected fallback when a
        #: shard's engine cannot narrow its own report).
        self._shard_queries: List[Set[str]] = [set() for _ in self.shards]
        #: last known satisfied-set of each shard, piggybacked on every
        #: batch reply; the group's satisfied-set is their union (each
        #: query is owned by exactly one shard, so the union is exact).
        self._shard_satisfied: List[FrozenSet[str]] = [
            frozenset() for _ in self.shards
        ]
        #: per-shard edge labels in use (the fan-out filter).
        self._shard_labels: List[Set[str]] = [set() for _ in self.shards]
        #: per-shard fan-out metrics: batches executed and engine seconds
        #: spent (compute time inside the shard, IPC excluded for process
        #: shards), surfaced by :meth:`describe`.
        self._shard_batches: List[int] = [0 for _ in self.shards]
        self._shard_batch_seconds: List[float] = [0.0 for _ in self.shards]
        #: affected-set accounting across fan-outs (mean size per batch).
        self._fan_outs = 0
        self._affected_reported = 0
        #: label -> live multigraph edges carrying it (multiplicity-counted).
        #: This is what lets a shard that *gains* a label through a
        #: mid-stream registration be backfilled with the edges it never
        #: received — the sharded group's analogue of the engines'
        #: ``_backfill_chain`` — keeping its answers byte-identical to an
        #: unsharded engine's whenever queries are registered.  History
        #: mirrors the unsharded registry's retention rule: an edge is
        #: recorded only when a *registered* generalised key (anywhere in
        #: the group) matches it at arrival, so a late registration sees
        #: exactly what one engine indexing the whole query database would
        #: have retained.
        self._live_edges: Dict[str, Counter] = {}
        #: every generalised key registered by any query in the group.
        self._global_keys: Set[EdgeKey] = set()

    @property
    def num_shards(self) -> int:
        """Number of shards in the group."""
        return len(self.shards)

    # ------------------------------------------------------------------
    # Executor lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release executor resources (worker processes).

        Idempotent.  Serial groups hold nothing and close trivially; the
        group stays usable for answer reads (``matches_of`` on in-process
        shards) but process shards are gone once closed.
        """
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            if isinstance(shard, _ProcessShardProxy):
                shard.close()

    def __enter__(self) -> "ShardedEngineGroup":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the restart lock (snapshots of sharded groups).

        In-process shards pickle as themselves; process shards pickle as
        their worker-state blobs (see ``_ProcessShardProxy.__getstate__``),
        so unpickling a group respawns restored workers.  The unpickled
        group is open regardless of the original's closed flag — a restore
        is a fresh lease on life.
        """
        state = self.__dict__.copy()
        state["_restart_lock"] = None
        state["_closed"] = False
        return state

    # ------------------------------------------------------------------
    # Rolling restarts
    # ------------------------------------------------------------------
    def rolling_restart(self) -> Dict[str, object]:
        """Cycle every shard: drain → snapshot → respawn → tail-replay →
        resume.  Returns per-shard pause seconds.

        The group is driven one batch at a time, so the restart runs
        between batches with no ``MatchDelta`` frame in flight: each shard
        is drained by the synchronous snapshot pull, its replacement
        worker restores that snapshot (in-process shards swap through the
        same snapshot/restore pair), and the swap completes before the
        next batch — zero missed or duplicated frames, byte-identical
        answers.  A concurrent call raises
        :class:`~repro.graph.errors.PersistenceError`; sequential repeat
        calls are idempotent (each is just another restart cycle).
        """
        if self._closed:
            raise PersistenceError("cannot rolling-restart a closed engine group")
        if getattr(self, "_restart_lock", None) is None:
            # Unpickled groups travel without their lock.
            self._restart_lock = threading.Lock()
        if not self._restart_lock.acquire(blocking=False):
            raise PersistenceError("a rolling restart is already in progress")
        try:
            pauses: List[float] = []
            for index, shard in enumerate(self.shards):
                if isinstance(shard, _ProcessShardProxy):
                    pauses.append(shard.restart())
                else:
                    start = time.perf_counter()
                    self.shards[index] = ContinuousEngine.restore(shard.snapshot())
                    pauses.append(time.perf_counter() - start)
            self.rolling_restarts += 1
            return {
                "shards": len(self.shards),
                "pause_seconds": [round(pause, 6) for pause in pauses],
                "rolling_restarts": self.rolling_restarts,
            }
        finally:
            self._restart_lock.release()

    def replication_statistics(self) -> List[Dict[str, object]]:
        """Per-process-shard replication counters (cheap: no worker IPC).

        Empty for non-process executors.  Each entry reports the shard's
        promotions, respawns, restarts, degraded flag, acknowledged
        sequence, and — when replicas are attached — their read/reseed
        counters and journal-seq lag behind the primary.
        """
        return [
            shard.replication_info()
            for shard in self.shards
            if isinstance(shard, _ProcessShardProxy)
        ]

    # ------------------------------------------------------------------
    # Query assignment
    # ------------------------------------------------------------------
    def shard_of(self, query_id: str) -> int:
        """Owning shard index of a registered query."""
        self._require_known(query_id)
        return self._owner[query_id]

    def _assign(self, pattern: QueryGraphPattern) -> int:
        if self.assignment == "hash":
            return zlib.crc32(pattern.query_id.encode("utf-8")) % len(self.shards)
        # Label affinity: the shard already owning most of the pattern's
        # labels wins; ties break to the least-loaded (then lowest) shard,
        # which is also where a pattern of entirely new labels lands.
        # Affinity alone degenerates on small label alphabets (every query
        # shares labels with shard 0, so everything piles up there), so a
        # shard more than ~2x ahead of the lightest shard stops attracting
        # and the choice falls back to the remaining shards — bounded
        # imbalance, clustering preserved while it is balance-neutral.
        labels = pattern.edge_labels()
        loads = [shard.num_queries for shard in self.shards]
        cap = 2 * min(loads) + 3
        candidates = [index for index in range(len(loads)) if loads[index] <= cap]
        return min(
            candidates,
            key=lambda index: (
                -len(labels & self._shard_labels[index]),
                self.shards[index].num_queries,
                index,
            ),
        )

    def _index_query(self, pattern: QueryGraphPattern) -> None:
        index = self._assign(pattern)
        shard = self.shards[index]
        new_labels = pattern.edge_labels() - self._shard_labels[index]
        shard.register(pattern)
        self._owner[pattern.query_id] = index
        self._shard_queries[index].add(pattern.query_id)
        self._shard_labels[index].update(pattern.edge_labels())
        self._global_keys.update(edge.key for edge in pattern.edges)
        self._backfill_shard(shard, new_labels)

    def _backfill_shard(self, shard: ContinuousEngine, new_labels: Set[str]) -> None:
        """Feed a shard the live edges of labels it just started owning.

        A mid-stream registration must leave the owning shard consistent
        with the whole stream consumed so far, exactly like registering on
        an unsharded engine: edges of labels the shard already owned were
        delivered in real time (the engine's own backfill covers those);
        edges of freshly gained labels were filtered out by the fan-out and
        are replayed here, one copy per live multigraph multiplicity.  The
        replay is *silent* — like the engines' registration backfill it
        must not mark queries satisfied (a query only enters the
        satisfied-set through a later notification), so the shard's
        satisfied-set is restored afterwards (:func:`silent_backfill`,
        executed inside the worker for a process shard).
        """
        backfill = [
            Update(Edge(label, source, target))
            for label in sorted(new_labels)
            for (source, target), multiplicity in sorted(
                self._live_edges.get(label, Counter()).items()
            )
            for _ in range(multiplicity)
        ]
        if not backfill:
            return
        if isinstance(shard, _ProcessShardProxy):
            shard.backfill(backfill)
        else:
            silent_backfill(shard, backfill)

    def _record_history(self, edges: Sequence[Edge], kind: UpdateKind) -> None:
        live = self._live_edges
        if kind is UpdateKind.ADD:
            global_keys = self._global_keys
            for edge in edges:
                # Retention mirrors EdgeViewRegistry: an edge nobody's
                # registered keys match is dropped, exactly as a single
                # engine indexing every query would drop it.
                if not any(key in global_keys for key in candidate_keys_for_edge(edge)):
                    continue
                bucket = live.get(edge.label)
                if bucket is None:
                    bucket = live[edge.label] = Counter()
                bucket[(edge.source, edge.target)] += 1
        else:
            for edge in edges:
                bucket = live.get(edge.label)
                if bucket is None:
                    continue
                key: Tuple[str, str] = (edge.source, edge.target)
                remaining = bucket.get(key, 0)
                if remaining <= 1:
                    bucket.pop(key, None)
                    if not bucket:
                        del live[edge.label]
                else:
                    bucket[key] = remaining - 1

    # ------------------------------------------------------------------
    # Stream fan-out
    # ------------------------------------------------------------------
    def on_batch(self, updates: Sequence[Update]) -> BatchReport:
        """Process a micro-batch with *one* shard call per relevant shard.

        The base class splits a batch into per-kind runs and would fan each
        run out separately — on an interleaved add/delete stream that turns
        one micro-batch into hundreds of per-shard calls, which is pure
        dispatch overhead in-process and pure IPC for the process
        executor.  The group instead hands every shard its full
        label-relevant *subsequence* of the batch (order and interleaving
        preserved) in a single call; the shard's own ``on_batch`` does the
        run splitting locally, with identical answer semantics.
        """
        updates = list(updates)
        if not updates:
            return BatchReport(affected=())
        self._updates_processed += len(updates)
        return self._fan_out_updates(updates)

    def _fan_out_updates(self, updates: Sequence[Update]) -> BatchReport:
        """Hand each shard its label-relevant subsequence, concurrently
        under the process executor, and merge the per-shard reports.

        The merge is deterministic for every executor: per-shard results
        are collected in shard order and combine through set unions, so the
        outcome does not depend on completion order.  A shard that received
        no relevant update contributes nothing — its queries provably kept
        their answers, which keeps the merged ``affected`` set narrow.
        Each reply piggybacks the shard's satisfied-set, from which the
        group's own satisfied-set is rebuilt (exact: every query is owned
        by exactly one shard).
        """
        # Record history in stream order, one run of each kind at a time.
        additions = deletions = 0
        start = 0
        while start < len(updates):
            kind = updates[start].kind
            stop = start
            while stop < len(updates) and updates[stop].kind is kind:
                stop += 1
            run = [update.edge for update in updates[start:stop]]
            self._record_history(run, kind)
            if kind is UpdateKind.ADD:
                additions += len(run)
            else:
                deletions += len(run)
            start = stop
        jobs: List[Tuple[int, List[Update]]] = []
        for index, labels in enumerate(self._shard_labels):
            relevant = [update for update in updates if update.edge.label in labels]
            if relevant:
                jobs.append((index, relevant))
        if not jobs:
            return BatchReport(affected=())
        results = self._run_jobs(jobs)
        reports: List[BatchReport] = []
        for (index, _), (report, satisfied, seconds) in zip(jobs, results):
            self._shard_batches[index] += 1
            self._shard_batch_seconds[index] += seconds
            self._shard_satisfied[index] = frozenset(satisfied)
            if not isinstance(report, BatchReport) or report.affected is None:
                # Engine without a native report: conservatively treat every
                # query owned by this shard as affected (still far narrower
                # than "the whole query database").
                report = BatchReport(report, affected=self._shard_queries[index])
            reports.append(report)
        self._satisfied.clear()
        self._satisfied.update(*self._shard_satisfied)
        merged = BatchReport.merge(reports)
        self._fan_outs += 1
        self._affected_reported += len(merged.affected or ())
        # Re-stamp counters with the group-level update counts (a shard's
        # own counters would double-count edges relevant to several shards).
        return BatchReport(
            merged, affected=merged.affected, additions=additions, deletions=deletions
        )

    def _run_jobs(
        self, jobs: Sequence[Tuple[int, List[Update]]]
    ) -> List[Tuple[BatchReport, FrozenSet[str], float]]:
        """Execute per-shard batch jobs under the configured executor."""
        if self.executor == "process":
            # Start every worker first, then collect: the shards overlap.
            # Collection goes through each proxy's finish_batch, which is
            # where worker death is detected and supervised recovery (and
            # the exactly-once re-run of the in-flight batch) happens.
            futures = [self.shards[index].start_batch(updates) for index, updates in jobs]
            return [
                self.shards[index].finish_batch(future, updates)
                for (index, updates), future in zip(jobs, futures)
            ]
        return [
            shard_op(self.shards[index], "batch", (updates,))
            for index, updates in jobs
        ]

    def _on_addition(self, edge: Edge) -> FrozenSet[str]:
        return self._fan_out_updates([Update(edge, UpdateKind.ADD)])

    def _on_deletion(self, edge: Edge) -> FrozenSet[str]:
        return self._fan_out_updates([Update(edge, UpdateKind.DELETE)])

    def _on_addition_batch(self, edges: Sequence[Edge]) -> FrozenSet[str]:
        return self._fan_out_updates([Update(edge, UpdateKind.ADD) for edge in edges])

    def _on_deletion_batch(self, edges: Sequence[Edge]) -> FrozenSet[str]:
        return self._fan_out_updates(
            [Update(edge, UpdateKind.DELETE) for edge in edges]
        )

    # ------------------------------------------------------------------
    # Answers (routed to the owning shard)
    # ------------------------------------------------------------------
    def matches_of(self, query_id: str) -> List[Dict[str, str]]:
        """Answers of ``query_id``, served by its owning shard."""
        return self.shards[self.shard_of(query_id)].matches_of(query_id)

    def has_matches(self, query_id: str) -> bool:
        """Existence probe, served by the owning shard."""
        return self.shards[self.shard_of(query_id)].has_matches(query_id)

    def answer_delta_source(self, query_id: str) -> Optional[MaintainedAnswerSource]:
        """Maintained answer relation of the owning shard (if any).

        ``None`` for process shards — their relations live in the worker
        process, so delta consumers snapshot-diff ``matches_of`` instead.
        """
        return self.shards[self.shard_of(query_id)].answer_delta_source(query_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_statistics(self) -> List[Dict[str, object]]:
        """Per-shard description dictionaries (queries, updates, memory...)."""
        return [shard.describe() for shard in self.shards]

    def describe(self) -> Dict[str, object]:
        description = super().describe()
        description["shards"] = self.num_shards
        description["assignment"] = self.assignment
        description["executor"] = self.executor
        description["shard_queries"] = [shard.num_queries for shard in self.shards]
        description["shard_labels"] = [len(labels) for labels in self._shard_labels]
        description["shard_batches"] = list(self._shard_batches)
        description["shard_batch_seconds"] = [
            round(seconds, 6) for seconds in self._shard_batch_seconds
        ]
        description["shard_batch_ms_mean"] = [
            round(seconds / batches * 1e3, 6) if batches else 0.0
            for seconds, batches in zip(self._shard_batch_seconds, self._shard_batches)
        ]
        description["affected_per_batch"] = (
            round(self._affected_reported / self._fan_outs, 3) if self._fan_outs else 0.0
        )
        if self.executor == "process":
            proxies = [
                shard for shard in self.shards
                if isinstance(shard, _ProcessShardProxy)
            ]
            description["shard_respawns"] = [proxy.respawns for proxy in proxies]
            description["shard_replayed_ops"] = [
                proxy.replayed_ops for proxy in proxies
            ]
            description["degraded_shards"] = sum(
                1 for proxy in proxies if proxy.degraded
            )
            description["shard_promotions"] = [proxy.promotions for proxy in proxies]
            description["shard_restarts"] = [proxy.restarts for proxy in proxies]
            description["replicas_per_shard"] = self.replicas_per_shard
            description["rolling_restarts"] = self.rolling_restarts
        description["per_shard"] = self.shard_statistics()
        return description

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedEngineGroup({self.shards[0].name!r}, "
            f"num_shards={self.num_shards}, queries={self.num_queries}, "
            f"executor={self.executor!r})"
        )
