"""Seeded inputs of the three benchmark workloads.

Every workload fixes its registered query database (generated once from a
constant seed, like a deployed schema) and draws its update streams from
the run's ``--seed``.  A seed therefore picks fresh traffic for the same
query database.  Query databases sampled from a fresh seed each run swing
the per-update cost by up to two orders of magnitude (one seed may draw a
long all-variable chain whose path views explode), which no run of
affordable length can average out.

An input is a list of :class:`Part` objects.  A part is one independent
stack: its own engine, query database, subscription and tick plan.
Every workload replays several short streams, each on its own stack, so
that one round averages over several independent graphs: the cost of one
stream varies with its seed by more than a bound can absorb (±7% for one
round of 16 SNB streams, after rescaling to the host's speed).
The generated streams of ``hub_poll`` and ``serve_durable`` are
insert-only and pass through a sliding window so that the live graph keeps
a fixed size (the generator's own deletions random-walk it).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.bench.experiments import build_stream, build_workload, pick_subscribed_queries
from repro.bench.workloads import WorkloadSpec, generate_workload
from repro.graph.elements import Update, delete
from repro.query.pattern import QueryGraphPattern

#: Constant seed of every workload's query database.
QUERY_SEED = 20_20


@dataclass(frozen=True)
class WorkloadConfig:
    """How one workload is driven (recorded in every result)."""

    name: str
    why: str
    #: Ticks due per second in an open loop; 0 runs a closed loop.
    rate: float = 0.0
    #: Stack: "local" (one in-process TRIC+) or "durable" (process shards,
    #: replicas and a journal behind DurableEngine).
    stack: str = "local"
    #: Subscription overflow policy and queue capacity (frames).
    policy: str = "block"
    capacity: int = 256

    @property
    def loop(self) -> str:
        return "open" if self.rate else "closed"


WORKLOADS: Dict[str, WorkloadConfig] = {
    "snb_notify": WorkloadConfig(
        name="snb_notify",
        why="the paper's regime: 32 SNB insert streams x 1,000 per-update ticks "
        "against 50 l=5 s=25% o=35% queries, closed loop; core apply is "
        "~82% of tick time (edge views ~12%), reads ~5%, broker ~4%",
    ),
    "hub_poll": WorkloadConfig(
        name="hub_poll",
        why="8 streams of Zipf(1.2) hubs in a 150-edge sliding window (about "
        "half deletions), 40 queries, closed loop, 2 matches_of per tick over "
        "16 polled; core apply ~77% of tick time, reads ~13%, broker ~7%",
    ),
    "serve_durable": WorkloadConfig(
        name="serve_durable",
        why="4 bursty streams, 2 process shards x 1 replica behind a fsynced "
        "journal, all 24 queries watched (coalesce, 4 frames), open loop at "
        "20 ticks/s; broker flush ~42% of tick time, shard fan-out ~44%",
        rate=20.0,
        stack="durable",
        policy="coalesce",
        capacity=4,
    ),
}


@dataclass
class Part:
    """One independent stack's inputs."""

    queries: List[QueryGraphPattern]
    ticks: List[List[Update]]
    #: Query ids the subscriber watches.
    watched: List[str]
    #: Query ids polled round-robin with ``matches_of`` after each tick.
    polled: List[str]
    polls_per_tick: int

    @property
    def num_updates(self) -> int:
        return sum(len(tick) for tick in self.ticks)

    def polls_after(self, tick_index: int) -> List[str]:
        """The query ids read after tick ``tick_index`` (fixed round-robin)."""
        first = tick_index * self.polls_per_tick
        return [
            self.polled[(first + offset) % len(self.polled)]
            for offset in range(self.polls_per_tick)
        ]

    def serialize(self) -> Dict[str, object]:
        return {
            "queries": [
                [q.query_id, [[e.label, str(e.source), str(e.target)] for e in q.edges]]
                for q in self.queries
            ],
            "ticks": [
                [["+" if u.is_addition else "-", u.edge.label, u.edge.source, u.edge.target]
                 for u in tick]
                for tick in self.ticks
            ],
            "watched": self.watched,
            "polled": self.polled,
            "polls_per_tick": self.polls_per_tick,
        }


@dataclass
class Inputs:
    workload: WorkloadConfig
    seed: int
    parts: List[Part]

    @property
    def num_updates(self) -> int:
        return sum(part.num_updates for part in self.parts)

    @property
    def num_ticks(self) -> int:
        return sum(len(part.ticks) for part in self.parts)

    def fingerprint(self) -> str:
        """SHA-256 of the canonical serialisation of every part."""
        payload = json.dumps(
            {"workload": self.workload.name, "parts": [p.serialize() for p in self.parts]},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# snb_notify
# ----------------------------------------------------------------------
SNB_PARTS = 32
SNB_UPDATES = 1_000
SNB_QUERIES = 50


def _snb_notify(seed: int) -> List[Part]:
    reference = build_stream("snb", SNB_UPDATES, QUERY_SEED)
    queries = build_workload(
        reference,
        num_queries=SNB_QUERIES,
        avg_edges=5,
        selectivity=0.25,
        overlap=0.35,
        seed=QUERY_SEED + 1,
    ).queries
    ids = [q.query_id for q in queries]
    watched = pick_subscribed_queries(ids, 5)
    parts = []
    for index in range(SNB_PARTS):
        stream = build_stream("snb", SNB_UPDATES, seed * SNB_PARTS + index)
        parts.append(
            Part(
                queries=queries,
                ticks=[[update] for update in stream],
                watched=watched,
                polled=watched,
                polls_per_tick=1,
            )
        )
    return parts


# ----------------------------------------------------------------------
# hub_poll
# ----------------------------------------------------------------------
HUB_SPEC = WorkloadSpec(
    name="hub_poll",
    num_updates=1_000,
    num_queries=40,
    num_vertices=400,
    num_labels=6,
    skew=1.2,
    mean_batch_size=4,
)
#: Live edges kept by the sliding window (oldest deleted first).
HUB_WINDOW = 150
HUB_PARTS = 8


def sliding_window(ticks: Sequence[Sequence[Update]], window: int) -> List[List[Update]]:
    """Delete the oldest live edge whenever more than ``window`` are live.

    Each tick keeps its additions and gains the deletions they push out of
    the window, so the live graph stays at ``window`` edges and about half
    of all updates are deletions once the window is full.
    """
    live: List[Update] = []
    head = 0
    windowed: List[List[Update]] = []
    for tick in ticks:
        out: List[Update] = []
        for update in tick:
            out.append(update)
            live.append(update)
            if len(live) - head > window:
                edge = live[head].edge
                head += 1
                out.append(delete(edge.label, edge.source, edge.target))
        windowed.append(out)
    return windowed


def _hub_poll(seed: int) -> List[Part]:
    queries = generate_workload(HUB_SPEC.with_overrides(seed=QUERY_SEED)).queries
    ids = [q.query_id for q in queries]
    parts = []
    for index in range(HUB_PARTS):
        traffic = generate_workload(HUB_SPEC.with_overrides(seed=seed * HUB_PARTS + index))
        parts.append(
            Part(
                queries=queries,
                ticks=sliding_window(list(traffic.iter_ticks()), HUB_WINDOW),
                watched=pick_subscribed_queries(ids, 5),
                polled=pick_subscribed_queries(ids, 16),
                polls_per_tick=2,
            )
        )
    return parts


# ----------------------------------------------------------------------
# serve_durable
# ----------------------------------------------------------------------
SERVE_SPEC = WorkloadSpec(
    name="serve_durable",
    num_updates=700,
    num_queries=24,
    num_vertices=80,
    num_labels=4,
    burstiness=0.2,
    mean_batch_size=3,
)
#: Live edges kept by the sliding window: 550 of a part's 1,250 updates
#: delete.
SERVE_WINDOW = 150
SERVE_PARTS = 4


def _serve_durable(seed: int) -> List[Part]:
    queries = generate_workload(SERVE_SPEC.with_overrides(seed=QUERY_SEED)).queries
    ids = sorted(q.query_id for q in queries)
    parts = []
    for index in range(SERVE_PARTS):
        traffic = generate_workload(SERVE_SPEC.with_overrides(seed=seed * SERVE_PARTS + index))
        parts.append(
            Part(
                queries=queries,
                ticks=sliding_window(list(traffic.iter_ticks()), SERVE_WINDOW),
                watched=ids,
                polled=ids,
                polls_per_tick=3,
            )
        )
    return parts


_BUILDERS = {
    "snb_notify": _snb_notify,
    "hub_poll": _hub_poll,
    "serve_durable": _serve_durable,
}


def build_inputs(workload: str, seed: int) -> Inputs:
    """The inputs of ``workload`` for ``seed`` (same seed, same inputs)."""
    return Inputs(WORKLOADS[workload], seed, _BUILDERS[workload](seed))


