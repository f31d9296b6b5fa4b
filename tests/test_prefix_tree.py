"""Tests for the prefix tree (and its Patricia compression)."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.order import build_order
from repro.data.collection import SetCollection
from repro.index.prefix_tree import PrefixTree
from repro.pubsub.broker import Broker
from repro.serve.state import ServeState

records_strategy = st.lists(
    st.lists(st.integers(0, 12), min_size=1, max_size=6), min_size=1, max_size=25
)


def _build(records, kind="element_id", compress=False):
    data = SetCollection(records)
    order = build_order(data, kind=kind)
    return PrefixTree.build(data, order, compress=compress), data, order


class TestShape:
    def test_shared_prefix_shares_nodes(self):
        tree, __, __ = _build([[0, 1, 2], [0, 1, 3]])
        root_children = [c for c in tree.root.children if not c.is_end_marker]
        assert len(root_children) == 1          # both sets start with 0
        n0 = root_children[0]
        n1 = [c for c in n0.children if not c.is_end_marker]
        assert len(n1) == 1                     # ... then 1
        leaves = [c for c in n1[0].children if not c.is_end_marker]
        assert len(leaves) == 2                 # diverge at 2 vs 3

    def test_duplicate_sets_share_end_marker(self):
        tree, __, __ = _build([[1, 2], [1, 2], [1, 2]])
        node = tree.root.children[0].children[0]
        ends = [c for c in node.children if c.is_end_marker]
        assert len(ends) == 1
        assert ends[0].terminal_rids == [0, 1, 2]

    def test_prefix_set_gets_end_marker_on_inner_node(self):
        tree, __, __ = _build([[0], [0, 1]])
        n0 = tree.root.children[0]
        markers = [c for c in n0.children if c.is_end_marker]
        assert len(markers) == 1 and markers[0].terminal_rids == [0]
        # The longer set continues below the same node.
        deeper = [c for c in n0.children if not c.is_end_marker]
        assert len(deeper) == 1

    def test_end_markers_inserted_first(self):
        tree, __, __ = _build([[0, 1], [0]])
        n0 = tree.root.children[0]
        assert n0.children[0].is_end_marker

    def test_num_sets_and_nodes(self):
        tree, __, __ = _build([[0, 1], [0, 2]])
        assert tree.num_sets == 2
        # root + node0 + (node1 + end) + (node2 + end) = 6
        assert tree.num_nodes == 6

    def test_depth(self):
        tree, __, __ = _build([[0, 1, 2]])
        # path of 3 element nodes + end marker
        assert tree.depth() == 4

    def test_distinct_elements(self):
        tree, __, __ = _build([[0, 1], [2]])
        assert tree.distinct_elements() == {0, 1, 2}

    def test_iter_nodes_counts(self):
        tree, __, __ = _build([[0, 1], [0, 2]])
        assert sum(1 for __ in tree.iter_nodes()) == tree.num_nodes


class TestGlobalOrderIntegration:
    def test_frequency_order_controls_paths(self):
        # Element 5 is most frequent, so it must be every path's head.
        records = [[5, 0], [5, 1], [5, 2]]
        tree, __, order = _build(records, kind="freq_desc")
        heads = {c.elements[0] for c in tree.root.children if not c.is_end_marker}
        assert heads == {5}

    def test_partition_roots_follow_anchor(self):
        tree, __, __ = _build([[0, 1], [1, 2], [0, 2]])
        anchors = {a for a, __ in tree.partition_roots()}
        assert anchors == {0, 1}

    def test_partition_elements_collected(self):
        tree, __, __ = _build([[0, 1], [0, 2], [1, 2]])
        assert tree.partition_elements[0] == {0, 1, 2}
        assert tree.partition_elements[1] == {1, 2}

    def test_incremental_tries_hold_no_partition_sets(self):
        # Only the partitioned joins read partition_elements, and they get
        # their trees from build(); the broker's and the store's tries grow
        # by insert() and compaction, which leave it empty.
        broker = Broker()
        for keywords in ([1, 2], [2, 3], [1, 4], [5]):
            broker.subscribe(keywords)
        broker.unsubscribe(0)
        broker.unsubscribe(1)
        state = ServeState(SetCollection([[0, 1], [1, 2], [0, 3]]))
        state.handle("append", {"record": [2, 3, 4]}, None)
        state.handle("delete", {"sid": 0}, None)
        state.handle("compact", {}, None)
        assert (len(broker.trie), len(state.trie)) == (2, 3)
        for trie in (broker.trie, state.trie):
            assert trie.epoch == 1
            assert trie.tree.partition_elements == {}


class TestPatricia:
    def test_chain_is_merged(self):
        tree, __, __ = _build([[0, 1, 2, 3]], compress=True)
        node = tree.root.children[0]
        assert node.elements == (0, 1, 2, 3)
        assert len(node.children) == 1 and node.children[0].is_end_marker

    def test_branching_limits_merging(self):
        tree, __, __ = _build([[0, 1, 2], [0, 1, 3]], compress=True)
        node = tree.root.children[0]
        assert node.elements == (0, 1)
        tails = sorted(c.elements for c in node.children)
        assert tails == [(2,), (3,)]

    def test_end_marker_stops_merging(self):
        # [0] ends at node 0, so 0 cannot merge with 1.
        tree, __, __ = _build([[0], [0, 1]], compress=True)
        node = tree.root.children[0]
        assert node.elements == (0,)

    def test_node_count_shrinks(self):
        plain, __, __ = _build([[0, 1, 2, 3, 4]], compress=False)
        packed, __, __ = _build([[0, 1, 2, 3, 4]], compress=True)
        assert packed.num_nodes < plain.num_nodes
        assert packed.compressed

    @given(records_strategy)
    def test_compression_preserves_sets(self, records):
        """Every inserted set must be readable back off the compressed tree."""
        tree, data, order = _build(records, compress=True)
        recovered = {}
        stack = [(tree.root, [])]
        while stack:
            node, path = stack.pop()
            if node.terminal_rids is not None:
                for rid in node.terminal_rids:
                    recovered[rid] = tuple(sorted(path))
            for child in node.children:
                stack.append((child, path + list(child.elements)))
        assert len(recovered) == len(data)
        for rid, record in enumerate(data):
            assert recovered[rid] == record


@given(records_strategy)
def test_every_set_is_a_root_to_marker_path(records):
    tree, data, order = _build(records)
    recovered = {}
    stack = [(tree.root, [])]
    while stack:
        node, path = stack.pop()
        if node.terminal_rids is not None:
            for rid in node.terminal_rids:
                recovered[rid] = tuple(sorted(path))
        for child in node.children:
            stack.append((child, path + list(child.elements)))
    for rid, record in enumerate(data):
        assert recovered[rid] == record


@given(records_strategy)
def test_num_nodes_bounded_by_tokens(records):
    tree, data, __ = _build(records)
    # root + at most one node per token + one end marker per distinct set
    assert tree.num_nodes <= 1 + data.total_tokens() + len(data)
