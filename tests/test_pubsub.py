"""Tests for the publish/subscribe broker."""

from __future__ import annotations

import random

import pytest

from repro.errors import InvalidParameterError
from repro.pubsub.broker import Broker, Subscription


@pytest.fixture
def broker():
    b = Broker()
    b.subscribe({"sports", "tennis"})       # 0
    b.subscribe({"politics"})                # 1
    b.subscribe({"sports"})                  # 2
    b.subscribe({"tennis", "politics"})      # 3
    return b


class TestSubscribe:
    def test_ids_are_sequential(self, broker):
        assert broker.subscribe({"x"}) == 4
        assert len(broker) == 5

    def test_empty_subscription_rejected(self, broker):
        with pytest.raises(InvalidParameterError):
            broker.subscribe(set())

    def test_subscription_dataclass_validation(self):
        with pytest.raises(InvalidParameterError):
            Subscription(0, frozenset())


class TestPublish:
    def test_all_keywords_required(self, broker):
        d = broker.publish({"sports", "news"})
        assert d.matched == [2]            # tennis missing for sub 0

    def test_superset_event_matches_everything_relevant(self, broker):
        d = broker.publish({"sports", "tennis", "politics"})
        assert d.matched == [0, 1, 2, 3]

    def test_no_match(self, broker):
        assert broker.publish({"weather"}).matched == []

    def test_unknown_keywords_ignored(self, broker):
        d = broker.publish({"sports", "zzz"})
        assert d.matched == [2]

    def test_counters(self, broker):
        broker.publish({"sports"})
        broker.publish({"politics"})
        assert broker.published == 2
        assert broker.delivered == 2      # sub 2, then sub 1

    def test_matches_does_not_count(self, broker):
        assert broker.matches({"politics"}) == [1]
        assert broker.published == 0 and broker.delivered == 0

    def test_empty_broker(self):
        assert Broker().publish({"anything"}).matched == []


class TestUnsubscribe:
    def test_cancelled_subscription_stops_matching(self, broker):
        assert broker.publish({"sports"}).matched == [2]
        broker.unsubscribe(2)
        assert broker.publish({"sports"}).matched == []
        assert len(broker) == 3

    def test_idempotent(self, broker):
        broker.unsubscribe(99)
        broker.unsubscribe(2)
        broker.unsubscribe(2)
        assert len(broker) == 3

    def test_compaction_preserves_results(self):
        b = Broker(compact_ratio=0.25)
        ids = [b.subscribe({f"k{i}"}) for i in range(20)]
        for sub_id in ids[:15]:
            b.unsubscribe(sub_id)
        # After heavy cancellation the trie was compacted; the rest match.
        assert b.trie.epoch >= 1
        for i in range(15, 20):
            assert b.publish({f"k{i}"}).matched == [ids[i]]

    def test_compact_ratio_validation(self):
        with pytest.raises(InvalidParameterError):
            Broker(compact_ratio=0.0)

    def test_double_cancel_counts_one_tombstone(self, broker):
        broker.unsubscribe(2)
        tombstones = broker.trie.dead_count
        broker.unsubscribe(2)
        broker.unsubscribe(2)
        assert broker.trie.dead_count == tombstones == 1

    def test_never_issued_id_is_clean_noop(self, broker):
        tombstones = broker.trie.dead_count
        broker.unsubscribe(10_000)
        broker.unsubscribe(-1)
        assert broker.trie.dead_count == tombstones
        assert len(broker) == 4

    def test_double_cancel_does_not_force_spurious_compaction(self):
        # One real cancel, then the same id cancelled repeatedly: if every
        # repeat counted a tombstone, the ratio check would compact.
        b = Broker(compact_ratio=0.5)
        ids = [b.subscribe({f"k{i}"}) for i in range(4)]
        tree = b.trie.tree
        b.unsubscribe(ids[0])
        for __ in range(10):
            b.unsubscribe(ids[0])
        assert b.trie.tree is tree, "repeat cancels compacted the live tree"
        assert b.trie.epoch == 0


class TestIncrementalConsistency:
    def test_subscribe_after_publish(self, broker):
        broker.publish({"sports"})
        new_id = broker.subscribe({"sports", "news"})
        d = broker.publish({"sports", "news"})
        assert new_id in d.matched and 2 in d.matched

    def test_new_keyword_after_tree_built(self, broker):
        broker.publish({"sports"})
        broker.subscribe({"astronomy"})
        assert broker.publish({"astronomy"}).matched == [4]

    def test_randomized_against_bruteforce(self):
        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(12)]
        b = Broker(compact_ratio=0.3)
        live = {}
        for step in range(300):
            op = rng.random()
            if op < 0.45 or not live:
                kws = frozenset(rng.sample(vocab, rng.randint(1, 4)))
                live[b.subscribe(kws)] = kws
            elif op < 0.6:
                victim = rng.choice(list(live))
                b.unsubscribe(victim)
                del live[victim]
            else:
                event = frozenset(rng.sample(vocab, rng.randint(1, 8)))
                expected = sorted(
                    sid for sid, kws in live.items() if kws <= event
                )
                assert b.publish(event).matched == expected


class TestEmptyRegistryReset:
    def test_last_unsubscribe_drops_tree(self, broker):
        # Draining the registry entirely must compact the trie down to its
        # root, not leave it holding tombstoned paths.
        broker.publish({"sports"})
        for sub_id in range(4):
            broker.unsubscribe(sub_id)
        assert len(broker) == 0
        assert broker.trie.tree.num_nodes == 1
        assert broker.trie.dead_count == 0
        assert len(broker.trie) == 0

    def test_resubscribe_after_drain_matches(self, broker):
        broker.publish({"sports"})
        for sub_id in range(4):
            broker.unsubscribe(sub_id)
        new_id = broker.subscribe({"sports"})
        assert broker.publish({"sports"}).matched == [new_id]
        # And the incremental path keeps working on the fresh tree.
        another = broker.subscribe({"sports", "tennis"})
        d = broker.publish({"sports", "tennis"})
        assert d.matched == [new_id, another]

    def test_publish_on_drained_broker_drops_tree(self, broker):
        broker.publish({"sports"})
        for sub_id in range(4):
            broker.unsubscribe(sub_id)
        assert broker.publish({"sports"}).matched == []
        assert broker.trie.tree.num_nodes == 1


class TestMatchesCounterIsolation:
    def test_matches_does_not_leak_into_registry(self, broker):
        from repro.obs import MetricsRegistry
        from repro.obs.registry import use_registry

        with use_registry(MetricsRegistry()) as reg:
            assert broker.matches({"politics"}) == [1]
            # The read-only probe must not create the publish counters.
            assert "pubsub.published" not in reg.counters
            assert "pubsub.delivered" not in reg.counters

    def test_matches_restores_prior_counter_values(self, broker):
        from repro.obs import MetricsRegistry
        from repro.obs.registry import use_registry

        with use_registry(MetricsRegistry()) as reg:
            broker.publish({"sports", "tennis", "politics"})
            published = reg.counters["pubsub.published"]
            delivered = reg.counters["pubsub.delivered"]
            assert broker.matches({"politics"}) == [1]
            assert reg.counters["pubsub.published"] == published
            assert reg.counters["pubsub.delivered"] == delivered

    def test_matches_rebuild_counters_still_count(self):
        # matches() reads the trie built at subscribe time: it rebuilds
        # nothing, and the publish/delivery tallies are shielded.
        from repro.obs import MetricsRegistry
        from repro.obs.registry import use_registry

        b = Broker()
        b.subscribe({"a"})
        with use_registry(MetricsRegistry()) as reg:
            assert b.matches({"a"}) == [0]
            assert "pubsub.rebuilds" not in reg.counters
            assert "pubsub.published" not in reg.counters
