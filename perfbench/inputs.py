"""Workload inputs made from the seed: collections, files and the op stream.

The same ``(workload, seed)`` always yields the same collection, the same
subscriptions and the same op stream; the program under test only ever
sees the generated data.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.data.collection import SetCollection
from repro.data.io import save_collection
from repro.data.realworld import generate_real_world
from repro.data.synthetic import generate_zipf

from spec import OP_MIX, WorkloadSpec

__all__ = [
    "Inputs",
    "make_inputs",
    "OpStream",
    "subscription_keywords",
    "probe_queries",
    "HOT_KEYWORDS",
    "VOCABULARY",
]

#: Keyword space of subscriptions and publishes: half of every draw comes
#: from a hot head of this many keywords, half from the whole vocabulary.
HOT_KEYWORDS = 200
VOCABULARY = 50_000
PUBLISH_KEYWORDS = 12


@dataclass
class Inputs:
    #: The whole generated collection, joined by the batch path.
    join: SetCollection
    base: SetCollection
    #: Records appended by the stream, in order (wrapping when exhausted).
    pool: List[Tuple[int, ...]]
    join_path: str
    base_path: str


def _generate(spec: WorkloadSpec, seed: int) -> SetCollection:
    kind, params = spec.dataset
    if kind == "aol":
        return generate_real_world("aol", scale=params["scale"], seed=seed)
    return generate_zipf(seed=seed, **params)


def make_inputs(spec: WorkloadSpec, seed: int, workdir: str) -> Inputs:
    join = _generate(spec, seed)
    records = join.records
    base = SetCollection(records[: spec.serve_base], validate=False)
    pool = records[spec.serve_base:] or records
    join_path = os.path.join(workdir, "join.txt")
    base_path = os.path.join(workdir, "base.txt")
    save_collection(join, join_path)
    save_collection(base, base_path)
    return Inputs(join, base, list(pool), join_path, base_path)


def _keyword(rng: random.Random) -> int:
    if rng.random() < 0.5:
        return rng.randrange(HOT_KEYWORDS)
    return rng.randrange(VOCABULARY)


def subscription_keywords(seed: int, count: int) -> List[List[int]]:
    """The keyword lists loaded as subscriptions during set-up."""
    rng = random.Random(f"subscriptions:{seed}")
    return [
        sorted({_keyword(rng) for _ in range(rng.randint(1, 4))})
        for _ in range(count)
    ]


class OpStream:
    """Seeded generator of the closed-loop op stream.

    It tracks the live sids and subscription ids from the replies it is
    shown (:meth:`observe`), so deletes and unsubscribes always name live
    ids and queries are drawn from live sets.
    """

    def __init__(
        self,
        seed: int,
        base: SetCollection,
        pool: Sequence[Tuple[int, ...]],
        subscriptions: int,
    ) -> None:
        self._rng = random.Random(f"stream:{seed}")
        self._records: Dict[int, Tuple[int, ...]] = dict(enumerate(base.records))
        self._live: List[int] = list(self._records)
        self._subs: List[int] = list(range(subscriptions))
        self._pool = pool
        self._appended = 0
        self._kinds = [kind for kind, _ in OP_MIX]
        self._weights = [weight for _, weight in OP_MIX]

    def _pick_live(self) -> int:
        return self._live[self._rng.randrange(len(self._live))]

    @staticmethod
    def _remove(items: List[int], value: int) -> None:
        index = items.index(value)
        items[index] = items[-1]
        items.pop()

    def next(self) -> Tuple[str, str, Dict[str, Any]]:
        """``(kind, op, params)`` of the next request."""
        rng = self._rng
        kind = rng.choices(self._kinds, self._weights)[0]
        if kind == "delete" and len(self._live) < 2:
            kind = "append"
        if kind == "unsubscribe" and not self._subs:
            kind = "subscribe"
        if kind == "query_super":
            record = self._records[self._pick_live()]
            probe = sorted(rng.sample(record, min(2, len(record))))
            return kind, "query", {"direction": "super", "record": probe}
        if kind == "query_sub":
            event = set()
            for _ in range(3):
                event.update(self._records[self._pick_live()])
            return kind, "query", {"direction": "sub", "record": sorted(event)}
        if kind == "append":
            record = self._pool[self._appended % len(self._pool)]
            self._appended += 1
            return kind, "append", {"record": list(record)}
        if kind == "delete":
            return kind, "delete", {"sid": self._pick_live()}
        if kind == "subscribe":
            count = rng.randint(1, 4)
            return kind, "subscribe", {
                "keywords": sorted({_keyword(rng) for _ in range(count)})
            }
        if kind == "unsubscribe":
            sub_id = self._subs[rng.randrange(len(self._subs))]
            return kind, "unsubscribe", {"sub_id": sub_id}
        keywords = sorted({_keyword(rng) for _ in range(PUBLISH_KEYWORDS)})
        return kind, "publish", {"keywords": keywords}

    def observe(self, kind: str, params: Dict[str, Any], result: Optional[Any]) -> None:
        """Update the live ids after a request; ``result`` None on failure."""
        if kind == "delete":
            self._remove(self._live, params["sid"])
        elif kind == "unsubscribe":
            self._remove(self._subs, params["sub_id"])
        elif result is None:
            return
        elif kind == "append":
            sid = result["sid"]
            self._records[sid] = tuple(params["record"])
            self._live.append(sid)
        elif kind == "subscribe":
            self._subs.append(result["sub_id"])


def probe_queries(seed: int, base: SetCollection) -> List[Dict[str, Any]]:
    """A fixed probe set asked before a kill and after each recovery."""
    rng = random.Random(f"probes:{seed}")
    records = base.records
    probes: List[Dict[str, Any]] = []
    for _ in range(12):
        record = records[rng.randrange(len(records))]
        probes.append({"direction": "super", "record": sorted(rng.sample(record, min(2, len(record))))})
    for _ in range(6):
        event = set(records[rng.randrange(len(records))])
        event.update(records[rng.randrange(len(records))])
        probes.append({"direction": "sub", "record": sorted(event)})
    return probes
