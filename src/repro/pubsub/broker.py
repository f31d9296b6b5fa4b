"""Keyword publish/subscribe matching on top of the containment machinery.

The paper's §I second application: "if the keywords subscribed to by a
user and the words in an article are modeled as the sets, then the set
containment determines if an article aligns with the user's interests".
This module is that service:

* a :class:`Broker` holds subscriptions (keyword sets). Publishing an
  event matches it against all *live* subscriptions: a subscription fires
  when **all** of its keywords appear in the event.
* the subscriptions live in an
  :class:`~repro.index.prefix_tree.IncrementalPrefixTree` keyed by
  subscription id, over the dictionary-encoded keywords. Subscribing
  inserts into it, so its footprint is resident from the first subscribe.
  Publishing runs the package's one subset walk
  (:meth:`~repro.index.prefix_tree.PrefixTree.subsets_of`), descending
  only through keywords the event contains.
* cancellations are the trie's tombstones; the trie compacts itself once
  they exceed ``compact_ratio`` of the live subscriptions (amortised O(1)
  per cancel).

Matching cost is proportional to the part of the subscription tree the
event's keywords cover, not to the number of subscriptions — which is the
reason to use a trie-shaped registry at all. A publish calls no user code
while it walks, so nothing can subscribe or cancel under the walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List

from ..data.collection import ElementDictionary
from ..errors import InvalidParameterError
from ..index.prefix_tree import IncrementalPrefixTree
from ..obs import registry as _obs

__all__ = ["Broker", "Subscription", "Delivery"]


@dataclass(frozen=True)
class Subscription:
    """One registered interest: fires when every keyword is in the event."""

    sub_id: int
    keywords: frozenset

    def __post_init__(self):
        if not self.keywords:
            raise InvalidParameterError("a subscription needs at least one keyword")


@dataclass
class Delivery:
    """The outcome of one publish."""

    event_keywords: frozenset
    matched: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.matched)


class Broker:
    """Subscription registry + matcher."""

    def __init__(self, compact_ratio: float = 0.5):
        self._trie = IncrementalPrefixTree(compact_ratio)
        self._dictionary = ElementDictionary()
        self._subscriptions: Dict[int, Subscription] = {}
        self._next_id = 0
        self.published = 0
        self.delivered = 0

    # -- subscription management -------------------------------------------

    def subscribe(self, keywords: Iterable[Hashable]) -> int:
        """Register a subscription; returns its id."""
        sub = Subscription(self._next_id, frozenset(keywords))
        self._trie.insert(
            [self._dictionary.encode(k) for k in sub.keywords], rid=sub.sub_id
        )
        self._subscriptions[sub.sub_id] = sub
        self._next_id += 1
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("pubsub.subscribed")
        return sub.sub_id

    def unsubscribe(self, sub_id: int) -> None:
        """Cancel a subscription.

        A clean no-op for ids that were never issued or were already
        cancelled — a second cancel must not double-count a tombstone or
        trigger a spurious compaction.
        """
        if self._subscriptions.pop(sub_id, None) is None:
            return
        epoch = self._trie.epoch
        self._trie.mark_dead(sub_id)
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("pubsub.unsubscribed")
            if self._trie.epoch != epoch:
                reg.inc("pubsub.compactions")

    def __len__(self) -> int:
        return len(self._subscriptions)

    @property
    def subscriptions(self) -> Dict[int, Subscription]:
        """Live subscriptions by id (do not mutate)."""
        return self._subscriptions

    @property
    def trie(self) -> IncrementalPrefixTree:
        """The subscription trie (for footprint metering; do not mutate)."""
        return self._trie

    # -- matching --------------------------------------------------------------

    def _match(self, event: frozenset) -> List[int]:
        # A keyword never subscribed to has no id and cannot match.
        ids = set()
        for keyword in event:
            eid = self._dictionary.encode_existing(keyword)
            if eid is not None:
                ids.add(eid)
        return self._trie.subsets_of(ids)

    def publish(self, keywords: Iterable[Hashable]) -> Delivery:
        """Match one event against all live subscriptions."""
        event = frozenset(keywords)
        delivery = Delivery(event, self._match(event))
        self.published += 1
        self.delivered += len(delivery)
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("pubsub.published")
            reg.inc("pubsub.delivered", len(delivery))
        return delivery

    def matches(self, keywords: Iterable[Hashable]) -> List[int]:
        """The ids :meth:`publish` would deliver, without counting a publish."""
        return self._match(frozenset(keywords))

    # -- serialization -------------------------------------------------------

    def dump_state(self) -> Dict[str, object]:
        """The exact logical state as JSON-serializable primitives.

        ``keywords`` lists the dictionary's vocabulary in id order, so the
        restored broker assigns the same encoded id to every keyword
        regardless of hash-iteration order in the restoring process.
        ``trie`` is the subscription trie's own payload, cancelled paths
        included, so the restored footprint is exact; the live
        subscriptions are its paths whose ids are not dead.
        """
        return {
            "keywords": [
                self._dictionary.decode(eid)
                for eid in range(len(self._dictionary))
            ],
            "next_id": self._next_id,
            "published": self.published,
            "delivered": self.delivered,
            "trie": self._trie.dump_state(),
        }

    @classmethod
    def restore_state(
        cls, payload: Dict[str, object], *, compact_ratio: float = 0.5
    ) -> "Broker":
        """Rebuild the exact broker a :meth:`dump_state` payload captured.

        A payload written before the broker kept its trie eagerly has
        ``subscriptions`` and a ``tree`` entry instead of ``trie``: a
        lazily built cache of the live subscriptions, or ``None``. The
        trie is then rebuilt from those subscriptions.
        """
        broker = cls(compact_ratio)
        decode = broker._dictionary.decode
        for keyword in payload["keywords"]:  # type: ignore[union-attr]
            broker._dictionary.encode(keyword)
        broker._next_id = int(payload["next_id"])  # type: ignore[arg-type]
        broker.published = int(payload["published"])  # type: ignore[arg-type]
        broker.delivered = int(payload["delivered"])  # type: ignore[arg-type]
        trie = payload.get("trie")
        if trie is None:
            paths = []
            for sub_id, keywords in payload["subscriptions"]:  # type: ignore[union-attr]
                encoded = sorted(broker._dictionary.encode(k) for k in keywords)
                paths.append([encoded, [sub_id]])
            trie = {
                "epoch": 0, "next_rid": broker._next_id, "dead": [], "paths": paths,
            }
        dead = set(trie["dead"])  # type: ignore[index]
        live = {
            int(rid): [decode(int(e)) for e in prefix]
            for prefix, rids in trie["paths"]  # type: ignore[index]
            for rid in rids
            if rid not in dead
        }
        for sub_id in sorted(live):
            broker._subscriptions[sub_id] = Subscription(
                sub_id, frozenset(live[sub_id])
            )
        broker._trie = IncrementalPrefixTree.restore_state(
            trie, compact_ratio=compact_ratio  # type: ignore[arg-type]
        )
        return broker
