"""Stream replay harness: drive an engine with a stream and measure it.

The runner reproduces the paper's measurement protocol:

* *indexing time* — wall-clock time to register the query database,
* *answering time* — wall-clock time per update to determine the satisfied
  queries (averaged over the stream),
* *time budget* — the paper aborts algorithms that exceed 24 hours on an
  experiment; the runner accepts a (much smaller) budget and reports the
  number of updates processed before it was exhausted, which is how the
  "timed out at |GE| = X" asterisks of Figs. 12(f), 13(a) and 14 are
  regenerated,
* *subscriptions* — pub/sub delivery of per-listener match deltas through a
  :class:`~repro.pubsub.broker.SubscriptionBroker` (``broker=`` /
  ``subscriptions=``), which is how applications consume the engines and
  which subsumes the older poll-every-satisfied-query loop (``poll_every``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..core.engine import ContinuousEngine
from ..graph.elements import Update
from ..graph.stream import GraphStream
from ..query.pattern import QueryGraphPattern
from .metrics import TimingStats, deep_sizeof

__all__ = ["ReplayResult", "StreamRunner"]


@dataclass
class ReplayResult:
    """Outcome of replaying one stream through one engine.

    With ``batch_size > 1`` the ``answering`` samples are *per micro-batch*
    (one sample per ``on_batch`` call) and ``matched_updates`` counts the
    batches that produced a non-empty answer set.
    """

    engine: str
    num_updates: int
    updates_processed: int
    indexing_time_s: float
    batch_size: int = 1
    answering: TimingStats = field(default_factory=TimingStats)
    matches_emitted: int = 0
    matched_updates: int = 0
    timed_out: bool = False
    memory_bytes: Optional[int] = None
    #: ``matches_of`` polling (``poll_every``): per-poll-round timings and
    #: the total number of answer dictionaries decoded across the replay.
    polling: TimingStats = field(default_factory=TimingStats)
    answers_decoded: int = 0
    #: Broker mode (``broker=`` / ``subscriptions=``): deltas delivered to
    #: subscriptions, answer dictionaries carried by them, and the
    #: per-policy overflow events observed across the replay.
    deltas_delivered: int = 0
    delta_answers: int = 0
    deltas_dropped: int = 0
    deltas_coalesced: int = 0
    backpressure_events: int = 0
    #: Names of subscriptions that exceeded capacity under
    #: ``OverflowPolicy.BLOCK`` at any point of the replay (including
    #: initial-snapshot deliveries) — the producer-facing backpressure flag
    #: that used to live only on the broker's internals.
    backpressured_subscriptions: Tuple[str, ...] = ()
    #: Affected-aware flushing: watched queries whose deltas were collected
    #: across the replay's ticks, and watched queries skipped because the
    #: engine's ``BatchReport`` proved the batch could not touch them.
    queries_flushed: int = 0
    queries_skipped: int = 0

    @property
    def backpressured(self) -> bool:
        """``True`` when any ``BLOCK`` subscription exceeded its capacity."""
        return bool(self.backpressured_subscriptions) or self.backpressure_events > 0

    @property
    def answering_time_ms_per_update(self) -> float:
        """Mean answering time per stream update in milliseconds.

        Computed from the total answering time over the updates actually
        processed, so it stays a *per-update* figure whatever the batch size.
        """
        if self.updates_processed == 0:
            return 0.0
        return self.answering.total_seconds / self.updates_processed * 1e3

    @property
    def total_answering_time_s(self) -> float:
        """Total answering time across the replay in seconds."""
        return self.answering.total_seconds

    @property
    def completed(self) -> bool:
        """``True`` when every update of the stream was processed."""
        return self.updates_processed == self.num_updates and not self.timed_out

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary used by reports and EXPERIMENTS.md generation."""
        return {
            "engine": self.engine,
            "batch_size": self.batch_size,
            "num_updates": self.num_updates,
            "updates_processed": self.updates_processed,
            "indexing_time_s": round(self.indexing_time_s, 6),
            "answering_ms_per_update": round(self.answering_time_ms_per_update, 6),
            "total_answering_s": round(self.total_answering_time_s, 6),
            "matches_emitted": self.matches_emitted,
            "matched_updates": self.matched_updates,
            "timed_out": self.timed_out,
            "memory_bytes": self.memory_bytes,
            "polls": self.polling.count,
            "total_polling_s": round(self.polling.total_seconds, 6),
            "answers_decoded": self.answers_decoded,
            "deltas_delivered": self.deltas_delivered,
            "delta_answers": self.delta_answers,
            "deltas_dropped": self.deltas_dropped,
            "deltas_coalesced": self.deltas_coalesced,
            "backpressure_events": self.backpressure_events,
            "backpressured_subscriptions": list(self.backpressured_subscriptions),
            "queries_flushed": self.queries_flushed,
            "queries_skipped": self.queries_skipped,
        }


class StreamRunner:
    """Replay update streams through a continuous-query engine.

    Parameters
    ----------
    engine:
        The engine under measurement.  May be omitted when ``broker`` is
        given (the broker's engine is used).
    broker:
        A :class:`~repro.pubsub.broker.SubscriptionBroker` to drive the
        stream through: every update (or micro-batch) flows through the
        broker, which forwards it to the engine and then flushes match
        deltas to its subscriptions.  Delivery work is timed as part of
        answering; delivery counts land in the ``deltas_*`` fields of
        :class:`ReplayResult`.
    subscriptions:
        Subscription specs created on the broker before the replay (a
        broker is created on demand when none was given).  Each spec is a
        query id, an iterable of query ids, or a mapping of keyword
        arguments for :meth:`~repro.pubsub.broker.SubscriptionBroker.subscribe`.
        Note the engine's queries must already be registered; use
        :meth:`subscribe` after :meth:`index_queries` otherwise.
    batch_size:
        Number of stream updates handed to the engine per call.  ``1`` (the
        default) drives the engine through :meth:`~repro.core.engine.ContinuousEngine.on_update`;
        larger values drive it through micro-batches
        (:meth:`~repro.core.engine.ContinuousEngine.on_batch`), which is
        answer-equivalent but amortizes per-update overhead.
    poll_every:
        When positive, every ``poll_every`` processed updates the runner
        polls :meth:`~repro.core.engine.ContinuousEngine.matches_of` for
        every currently satisfied query — the ``matches_of``-heavy workload
        that differentiates the answer-materialising ``+`` engines from
        their base variants.  Poll rounds are timed separately from
        answering (``ReplayResult.polling`` / ``answers_decoded``).
        Broker subscriptions subsume this loop for applications that only
        watch specific queries; the polling mode is kept for the benchmark
        comparisons.
    """

    def __init__(
        self,
        engine: Optional[ContinuousEngine] = None,
        *,
        time_budget_s: Optional[float] = None,
        batch_size: int = 1,
        poll_every: int = 0,
        broker=None,
        subscriptions: Optional[Iterable[object]] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if poll_every < 0:
            raise ValueError("poll_every must not be negative")
        if broker is not None:
            if engine is None:
                engine = broker.engine
            elif engine is not broker.engine:
                raise ValueError("broker drives a different engine than the one given")
        if engine is None:
            raise ValueError("StreamRunner needs an engine or a broker")
        self.engine = engine
        self.broker = broker
        self.time_budget_s = time_budget_s
        self.batch_size = batch_size
        self.poll_every = poll_every
        self.indexing_time_s = 0.0
        for spec in subscriptions or ():
            self._subscribe_spec(spec)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def _require_broker(self):
        if self.broker is None:
            from ..pubsub.broker import SubscriptionBroker

            self.broker = SubscriptionBroker(self.engine)
        return self.broker

    def _subscribe_spec(self, spec: object) -> None:
        if isinstance(spec, Mapping):
            self.subscribe(**dict(spec))
        elif isinstance(spec, str):
            self.subscribe([spec])
        else:
            self.subscribe(list(spec))  # type: ignore[arg-type]

    def subscribe(self, query_ids=None, **kwargs):
        """Create a broker subscription (building the broker on demand).

        Forwards to :meth:`SubscriptionBroker.subscribe
        <repro.pubsub.broker.SubscriptionBroker.subscribe>`
        with ``query_ids`` (``None`` = every registered query) and returns
        the :class:`~repro.pubsub.broker.Subscription`.
        """
        return self._require_broker().subscribe(
            kwargs.pop("name", None), query_ids, **kwargs
        )

    # ------------------------------------------------------------------
    # Query indexing
    # ------------------------------------------------------------------
    def index_queries(self, queries: Iterable[QueryGraphPattern]) -> float:
        """Register ``queries`` with the engine, returning the elapsed seconds."""
        start = time.perf_counter()
        self.engine.register_all(queries)
        elapsed = time.perf_counter() - start
        self.indexing_time_s += elapsed
        return elapsed

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(
        self,
        stream: GraphStream | Sequence[Update],
        *,
        measure_memory: bool = False,
    ) -> ReplayResult:
        """Feed every update of ``stream`` to the engine and measure it.

        The replay stops early (and flags ``timed_out``) once the cumulative
        answering time exceeds the configured time budget.  With
        ``batch_size > 1`` the stream is consumed in micro-batches through
        the engine's batch API; the budget is checked after every batch.
        In broker mode each chunk flows through the broker (engine call plus
        delta flush and delivery) and the delivery counters are accumulated
        on the result.
        """
        updates = list(stream)
        result = ReplayResult(
            engine=self.engine.name,
            num_updates=len(updates),
            updates_processed=0,
            indexing_time_s=self.indexing_time_s,
            batch_size=self.batch_size,
        )
        budget = self.time_budget_s
        elapsed_total = 0.0
        per_update = self.batch_size == 1
        broker = self.broker
        updates_since_poll = 0
        backpressured_names: set = set()
        for start_index in range(0, len(updates), self.batch_size):
            chunk = updates[start_index : start_index + self.batch_size]
            start = time.perf_counter()
            if broker is not None:
                tick = (
                    broker.on_update(chunk[0]) if per_update else broker.on_batch(chunk)
                )
                matched = tick.notified
            elif per_update:
                matched = self.engine.on_update(chunk[0])
            else:
                matched = self.engine.on_batch(chunk)
            elapsed = time.perf_counter() - start
            result.answering.record(elapsed)
            result.updates_processed += len(chunk)
            elapsed_total += elapsed
            if broker is not None:
                result.deltas_delivered += tick.delivered
                result.delta_answers += tick.num_changes
                result.deltas_dropped += tick.dropped
                result.deltas_coalesced += tick.coalesced
                result.backpressure_events += len(tick.backpressured)
                backpressured_names.update(tick.backpressured)
                result.queries_flushed += tick.flushed
                result.queries_skipped += tick.skipped
            if matched:
                result.matched_updates += 1
                result.matches_emitted += len(matched)
            if self.poll_every:
                updates_since_poll += len(chunk)
                if updates_since_poll >= self.poll_every:
                    # Keep the remainder so batched replays still poll every
                    # ~poll_every updates, not every ceil(poll_every /
                    # batch_size) batches.
                    updates_since_poll -= self.poll_every
                    poll_start = time.perf_counter()
                    for query_id in sorted(self.engine.satisfied_queries()):
                        result.answers_decoded += len(self.engine.matches_of(query_id))
                    poll_elapsed = time.perf_counter() - poll_start
                    result.polling.record(poll_elapsed)
                    elapsed_total += poll_elapsed
            if budget is not None and elapsed_total > budget:
                result.timed_out = True
                break
        if broker is not None:
            # A BLOCK queue may also have overflowed outside a tick (the
            # initial snapshot of a mid-replay subscribe); fold any
            # still-over-capacity BLOCK subscription into the flag.
            for name, subscription in broker.subscriptions.items():
                if (
                    subscription.backpressured
                    or len(subscription.queue) > subscription.capacity
                ):
                    backpressured_names.add(name)
            result.backpressured_subscriptions = tuple(sorted(backpressured_names))
        if measure_memory:
            result.memory_bytes = deep_sizeof(self.engine)
        return result
