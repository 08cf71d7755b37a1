"""The Naive string oracle and the transcript it is compared on.

A part's transcript is the canonical JSON of its per-tick notified query
ids plus the final ``matches_of`` of every watched or polled query.  The
oracle replays the same part through :class:`repro.NaiveEngine`.  Its
digests depend only on the inputs, so they are cached on disk under the
inputs' fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Sequence

from repro import NaiveEngine

from inputs import Inputs, Part


def answered_queries(part: Part) -> List[str]:
    """The queries whose final answers a transcript records."""
    return sorted(set(part.watched) | set(part.polled))


def transcript_digest(
    per_tick_notified: Sequence[Sequence[str]], answers: Dict[str, list]
) -> str:
    payload = json.dumps(
        {"ticks": [sorted(ids) for ids in per_tick_notified], "answers": answers},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def naive_digests(inputs: Inputs) -> List[str]:
    digests = []
    for part in inputs.parts:
        engine = NaiveEngine()
        engine.register_all(part.queries)
        notified = [engine.on_batch(tick) for tick in part.ticks]
        answers = {qid: engine.matches_of(qid) for qid in answered_queries(part)}
        digests.append(transcript_digest(notified, answers))
    return digests


def oracle_digests(inputs: Inputs, cache_dir: Path) -> List[str]:
    """Per-part oracle digests, from the cache when the inputs were seen."""
    path = cache_dir / f"{inputs.workload.name}-{inputs.fingerprint()}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    digests = naive_digests(inputs)
    cache_dir.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(".tmp")
    scratch.write_text(json.dumps(digests), encoding="utf-8")
    scratch.replace(path)
    return digests
