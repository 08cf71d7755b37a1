"""End-to-end benchmark of the serving stack, with a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload snb_notify --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``snb_notify``, ``hub_poll`` and ``serve_durable``
(see ``inputs.py`` for why each exists).  The run builds its inputs from
``--seed``, then repeats *rounds* until ``--seconds`` of measuring are
used: a round builds a fresh TRIC+ stack for every part of the input,
replays its ticks and tears it down.  Measured times are rescaled to a
reference host speed by a probe loop run between ticks (``hostspeed.py``),
because the speed of a shared host drifts more than any useful bound
between runs.  After the last round, every round's
transcript is compared with the Naive oracle's and every subscription's
folded frames with its final answers, outside the timed window.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced rounds and prints the per-layer metrics, including
the tracing overhead.  Each metric is printed on its own line with its
unit; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run that fails the oracle gate, or whose
open-loop backlog grew, prints ``"correct": false`` and exits with 1.
The full report, with provenance and the span summary of a traced run,
goes to ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from hostspeed import REFERENCE_PROBE_S
from samples import tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
CACHE = HERE / ".cache"

WORKLOAD_NAMES = ("snb_notify", "hub_poll", "serve_durable")
#: Set-up-only samples taken before the rounds (``setup_s`` is their median
#: together with the rounds' own set-ups).
SET_UP_SAMPLES = 9

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "updates_per_s": "1/s",
    "tick_p50_ms": "ms",
    "tick_p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "delivery_p50_ms": "ms",
    "delivery_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "core.apply_s": "s",
    "core.self_s": "s",
    "core.notified": "count",
    "core.affected": "count",
    "core.tries": "count",
    "core.trie_nodes": "count",
    "views.apply_s": "s",
    "views.rows": "count",
    "interning.live_ids": "count",
    "answers.read_s": "s",
    "answers.rows_read": "count",
    "answers.materialized_rows": "count",
    "broker.flush_s": "s",
    "broker.drain_s": "s",
    "broker.queries_flushed": "count",
    "broker.queries_skipped": "count",
    "broker.flush_yield": "ratio",
    "broker.frames": "count",
    "broker.coalesced": "count",
    "serve.encode_s": "s",
    "serve.frame_bytes": "bytes",
    "serve.bytes_per_frame": "bytes",
    "sharding.fanout_s": "s",
    "sharding.shard_compute_s": "s",
    "sharding.wait_s": "s",
    "sharding.shard_batches": "count",
    "sharding.shard_skew": "ratio",
    "sharding.respawns": "count",
    "journal.append_s": "s",
    "journal.records": "count",
    "journal.bytes": "bytes",
    "durable.snapshot_s": "s",
    "durable.snapshots": "count",
    "replication.reads_by_replica": "count",
    "replication.max_lag_ops": "count",
    "replication.promotions": "count",
    "gen.late_ticks": "count",
    "gen.lateness_p99_ms": "ms",
    "mem.parent_rss_mb": "MB",
    "mem.worker_rss_mb": "MB",
    "trace.overhead_pct": "%",
    "trace.unattributed_share": "ratio",
}

#: Per-layer counts fixed by the inputs: identical on every run of a seed.
DETERMINISTIC_COUNTS = (
    "core.notified",
    "core.affected",
    "core.tries",
    "core.trie_nodes",
    "broker.queries_flushed",
    "broker.queries_skipped",
    "broker.frames",
    "broker.coalesced",
    "serve.frame_bytes",
    "journal.records",
    "journal.bytes",
    "views.rows",
    "answers.rows_read",
    "interning.live_ids",
)
#: Per-layer counts that depend on timing, excluded from that check.
TIMING_DEPENDENT_COUNTS = (
    "replication.max_lag_ops",
    "gen.late_ticks",
    "gen.lateness_p99_ms",
)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(rounds, set_ups: List[float]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """End-to-end metric values plus a note on each percentile's basis.

    Every latency percentile is taken within each part of each round (one
    stack's replay of one stream) and reported as the median over them, so
    one stall moves it by one rank, not by a share of the pooled tail.
    ``set_ups`` are the set-up-only samples taken before the rounds; the
    rounds' own set-ups join them for ``setup_s``.
    """
    set_ups = set_ups + [r.setup_s for r in rounds]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    values = {
        "setup_s": _median(set_ups),
        "updates_per_s": _median([r.updates / r.busy_s for r in rounds if r.busy_s > 0]),
        "peak_rss_mb": max(r.parent_rss_mb + r.worker_rss_mb for r in rounds),
        "ok_ops_ratio": 1.0 - failed / attempted if attempted else 0.0,
    }
    notes = {
        "setup_s": f"median of {len(set_ups)} set-ups",
        "updates_per_s": f"median of {len(rounds)} round(s)",
        "ok_ops_ratio": f"{attempted - failed} of {attempted} ticks, reads and frames",
    }
    for name in ("tick", "read", "delivery"):
        per_part = [latency for r in rounds for latency in getattr(r, name)]
        values[f"{name}_p50_ms"] = _median([latency.p50 for latency in per_part]) * 1e3
        values[f"{name}_p99_ms"] = _median([latency.tail for latency in per_part]) * 1e3
        percentile = min(latency.percentile for latency in per_part)
        counts = sorted({latency.count for latency in per_part})
        span = str(counts[0]) if len(counts) == 1 else f"{counts[0]}-{counts[-1]}"
        basis = f"median over {len(per_part)} part replays of {span} samples each"
        notes[f"{name}_p50_ms"] = f"p50, {basis}"
        notes[f"{name}_p99_ms"] = f"p{percentile:.2f}, {basis}"
    return values, notes


def per_layer(traced, untraced) -> Dict[str, float]:
    """Per-layer values: medians over the traced rounds, except the
    generator's lateness, taken from the untraced rounds."""
    per_round: List[Dict[str, float]] = []
    for result, summary in traced:
        counts = result.counts

        def busy(span: str) -> float:
            return summary.get(span, {}).get("busy_s", 0.0)

        def own(span: str) -> float:
            return summary.get(span, {}).get("self_s", 0.0)

        values = {name: float(counts.get(name, 0)) for name in PER_LAYER}
        high = counts.get("sharding.shard_compute_max_s", 0.0)
        low = counts.get("sharding.shard_compute_min_s", 0.0)
        values.update(
            {
                "core.apply_s": busy("engine.on_batch"),
                "core.self_s": own("engine.on_batch"),
                "views.apply_s": busy("views.apply"),
                "answers.read_s": busy("answers.matches_of"),
                "broker.flush_s": busy("broker.flush"),
                "broker.drain_s": busy("subscription.drain"),
                "broker.flush_yield": counts["broker.deltas"] / counts["broker.queries_flushed"]
                if counts["broker.queries_flushed"]
                else 0.0,
                "serve.encode_s": busy("serve.encode"),
                "serve.bytes_per_frame": counts["serve.frame_bytes"] / counts["broker.frames"]
                if counts["broker.frames"]
                else 0.0,
                "sharding.fanout_s": busy("sharding.on_batch"),
                "sharding.wait_s": max(0.0, busy("sharding.on_batch") - high),
                "sharding.shard_skew": high / low if low > 0 else 1.0,
                "journal.append_s": busy("journal.append_batch"),
                "durable.snapshot_s": busy("durable.write_snapshot"),
                "trace.unattributed_share": own("tick") / busy("tick") if busy("tick") else 0.0,
            }
        )
        per_round.append(values)
    values = {name: _median([r[name] for r in per_round]) for name in PER_LAYER}
    lateness = [s for r in untraced for part in r.lateness_s for s in part]
    values["gen.late_ticks"] = _median([r.counts["gen.late_ticks"] for r in untraced])
    values["gen.lateness_p99_ms"] = tail_percentile(lateness)[0] * 1e3
    values["mem.parent_rss_mb"] = max(r.parent_rss_mb for r, _ in traced)
    values["mem.worker_rss_mb"] = max(r.worker_rss_mb for r, _ in traced)
    traced_busy = _median([r.busy_s for r, _ in traced])
    untraced_busy = _median([r.busy_s for r in untraced])
    values["trace.overhead_pct"] = 100.0 * (traced_busy / untraced_busy - 1.0) if untraced_busy else 0.0
    return values


def pin_to_one_cpu() -> int:
    """Pin this process, and so every worker it starts, to one CPU.

    The shard and replica workers trade many small messages per tick.  On
    one CPU each hand-off is a context switch; across CPUs it is a wake-up
    of another (virtual) CPU, whose latency follows the host's load and
    swung 2x within minutes on a shared 2-CPU machine.  Returns the CPU, or
    -1 where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return -1
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def provenance(args, inputs, rounds, cpu: int) -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha or "unavailable",
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "reference_probe_s": REFERENCE_PROBE_S,
        "speed_factor": _median([f for r in rounds for f in r.speed_factors]),
        "fingerprint": inputs.fingerprint(),
        "updates_per_round": inputs.num_updates,
        "ticks_per_round": inputs.num_ticks,
        "loop": inputs.workload.loop,
        "rate_ticks_per_s": inputs.workload.rate or None,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    from inputs import build_inputs
    from oracle import oracle_digests
    from stack import reap_children, run_round, time_set_up
    from tracing import NULL_TRACER, Tracer

    inputs = build_inputs(args.workload, args.seed)
    # The inputs live for the whole run: keep the collector from rescanning
    # them, and start every set-up and round from an empty young generation.
    gc.collect()
    gc.freeze()
    workdir = HERE / ".work" / str(os.getpid())
    traced, untraced = [], []
    tracer = None
    try:
        samples = 0 if args.trace else SET_UP_SAMPLES
        set_ups = [time_set_up(inputs, workdir) for _ in range(samples)]
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            done = len(traced) + len(untraced)
            enough = bool(untraced) and (bool(traced) or not args.trace)
            if enough and elapsed + elapsed / done > args.seconds:
                break
            if args.trace and done % 2 == 1:
                tracer = Tracer()
                result = run_round(inputs, tracer, workdir)
                traced.append((result, tracer.summary()))
            else:
                untraced.append(run_round(inputs, NULL_TRACER, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        reap_children()
    rounds = untraced + [result for result, _ in traced]

    expected = oracle_digests(inputs, CACHE / "oracle")
    problems = []
    for number, result in enumerate(rounds):
        if result.digests != expected:
            problems.append(f"round {number}: transcript differs from the Naive oracle")
        if not result.replay_ok:
            problems.append(f"round {number}: folded frames differ from final matches_of")
        if result.backlog_grew and number < len(untraced):
            problems.append(f"round {number}: open-loop backlog grew (rate above capacity)")
    problems += sorted({error for result in rounds for error in result.errors})

    if args.trace:
        values = per_layer(traced, untraced)
        units, notes = PER_LAYER, {}
    else:
        values, notes = end_to_end(untraced, set_ups)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    report = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    details = {
        **report,
        "problems": problems,
        "notes": notes,
        "provenance": provenance(args, inputs, rounds, cpu),
        "spans": traced[-1][1] if traced else {},
        "rounds": [
            {
                "traced": number >= len(untraced),
                "setup_s": r.setup_s,
                "busy_s": r.busy_s,
                "updates_per_s": r.updates / r.busy_s if r.busy_s else 0.0,
                "speed_factor": _median(r.speed_factors),
                "tick_p50_ms": [latency.p50 * 1e3 for latency in r.tick],
                "delivery_p50_ms": [latency.p50 * 1e3 for latency in r.delivery],
            }
            for number, r in enumerate(rounds)
        ],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.jsonl")

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"provenance {json.dumps(details['provenance'], sort_keys=True)}")
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps(report, sort_keys=True))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
