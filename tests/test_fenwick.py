"""Fenwick forest construction, set queries, and bit transcoding."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermap.fenwick import FenwickForest


def decode(forest, code):
    """Invert ``forest.encode``: n_j = x_j + sum_{k in F(j)} x_k mod 2."""
    return tuple(
        (code[j] + sum(code[k] for k in forest.children(j))) % 2 for j in range(forest.n_sites)
    )


def reference_sets(forest):
    """F(j), U(j), C(j) and P(j) per site, from ``parent`` and ``roots`` alone.

    These are the paper's definitions, written independently of the
    forest's masks: F(j) are the sites whose parent is j, U(j) is found
    by walking parents, C(j) are the children below j of every ancestor
    of j, and P(j) = F(j) u C(j) u the roots below j.  Each set is a
    sorted tuple.
    """
    n = forest.n_sites
    children = [{i for i in range(n) if forest.parent[i] == j} for j in range(n)]
    ancestors = []
    for j in range(n):
        up, node = set(), forest.parent[j]
        while node is not None:
            up.add(node)
            node = forest.parent[node]
        ancestors.append(up)
    cousins = [
        {c for a in ancestors[j] for c in children[a] if c < j} for j in range(n)
    ]
    parity = [
        children[j] | cousins[j] | {r for r in forest.roots if r < j}
        for j in range(n)
    ]
    return tuple(
        [tuple(sorted(s)) for s in sets]
        for sets in (children, ancestors, cousins, parity)
    )


def floor_log2(n):
    return n.bit_length() - 1


def ceil_log2(n):
    return (n - 1).bit_length()


class TestBuild:
    def test_seven_site_tree(self):
        f = FenwickForest.build(7)
        assert f.children(6) == (3, 5)
        assert f.children(3) == (1, 2)
        assert f.children(1) == (0,)
        assert f.children(5) == (4,)
        for leaf in (0, 2, 4):
            assert f.children(leaf) == ()
        assert f.roots == (6,)

    def test_single_site(self):
        f = FenwickForest.build(1)
        assert f.roots == (0,)
        assert f.parent == (None,)
        assert f.depth() == 0

    def test_power_of_two_partial_order(self):
        # For N = 2^d the parent of every non-root j is j | (j + 1):
        # flipping the lowest clear bit, the binary-label child rule.
        for n in (2, 4, 8, 16, 32):
            f = FenwickForest.build(n)
            for j in range(n - 1):
                assert f.parent[j] == j | (j + 1)
            assert f.parent[n - 1] is None

    def test_eight_site_root_children(self):
        f = FenwickForest.build(8)
        assert f.children(7) == (3, 5, 6)  # 011, 101, 110 under the root

    @pytest.mark.parametrize("n", list(range(1, 130)) + [511, 512, 513, 1024])
    def test_depth_and_root_children(self, n):
        f = FenwickForest.build(n)
        assert f.depth() == ceil_log2(n) if n > 1 else f.depth() == 0
        assert len(f.children(n - 1)) == floor_log2(n)

    def test_parent_exceeds_child(self):
        f = FenwickForest.build(37, [10, 20, 7])
        for j, p in enumerate(f.parent):
            if p is not None:
                assert p > j

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            FenwickForest.build(5, [2, 2])
        with pytest.raises(ValueError):
            FenwickForest.build(5, [5, 0])
        with pytest.raises(ValueError):
            FenwickForest.build(0)

    def test_segments_partition(self):
        f = FenwickForest.build(9, [3, 4, 2])
        assert f.segments == ((0, 3), (3, 7), (7, 9))
        assert f.roots == (2, 6, 8)


class TestSetQueries:
    def test_sixteen_site_example(self):
        f = FenwickForest.build(16)
        assert f.lesser_cousins(9) == (7,)
        assert f.ancestors(9) == (11, 15)
        assert f.parity_set(9) == (7, 8)
        assert f.children(9) == (8,)

    def test_jw_limit(self):
        f = FenwickForest.build(6, [1] * 6)
        for j in range(6):
            assert f.ancestors(j) == ()
            assert f.children(j) == ()
            assert f.parity_set(j) == tuple(range(j))

    def test_smallest_leaf_empty_parity(self):
        for n in (1, 5, 9, 16):
            assert FenwickForest.build(n).parity_set(0) == ()

    def test_index_out_of_range(self):
        f = FenwickForest.build(4)
        with pytest.raises(IndexError):
            f.children(4)
        with pytest.raises(IndexError):
            f.parity_set(-1)
        for query in (f.children, f.ancestors, f.lesser_cousins, f.parity_set):
            for j in (-1, f.n_sites):
                with pytest.raises(IndexError):
                    query(j)

    @pytest.mark.parametrize("sizes", [None, [4, 4], [1, 3, 4], [2, 2, 2, 2]])
    def test_order_invariants(self, sizes):
        f = FenwickForest.build(8, sizes)
        for j in range(8):
            assert all(i < j for i in f.children(j))
            assert all(i < j for i in f.lesser_cousins(j))
            assert all(i < j for i in f.parity_set(j))
            assert all(i > j for i in f.ancestors(j))
            assert not set(f.parity_set(j)) & set(f.ancestors(j))


class TestReference:
    """Every mask-backed query against the paper's set definitions."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_queries_match_definitions(self, data):
        # Up to 200 sites, so masks run past one 64-bit word.
        n_sites = data.draw(st.integers(1, 200))
        sizes = []
        left = n_sites
        while left:
            size = data.draw(st.integers(1, left))
            sizes.append(size)
            left -= size
        f = FenwickForest.build(n_sites, sizes)
        children, ancestors, cousins, parity = reference_sets(f)
        for j in range(n_sites):
            assert f.children(j) == children[j]
            assert f.ancestors(j) == ancestors[j]
            assert f.lesser_cousins(j) == cousins[j]
            assert f.parity_set(j) == parity[j]
            assert f.children_mask[j] == sum(1 << q for q in children[j])
            assert f.ancestor_mask[j] == sum(1 << q for q in ancestors[j])
            assert f.parity_mask[j] == sum(1 << q for q in parity[j])
        assert f.depth() == max(len(up) for up in ancestors)
        bits = [data.draw(st.integers(0, 1)) for _ in range(n_sites)]
        code = [0] * n_sites
        for j in range(n_sites):
            code[j] = (bits[j] + sum(code[k] for k in children[j])) % 2
        assert f.encode(bits) == tuple(code)
        assert decode(f, code) == tuple(bits)


class TestCoding:
    def test_paper_seven_site_string(self):
        f = FenwickForest.build(7)
        n = tuple(int(c) for c in "0111010")
        assert f.encode(n) == n  # this occupancy string is a fixed point

    def test_zeros(self):
        f = FenwickForest.build(11, [4, 7])
        assert f.encode([0] * 11) == tuple([0] * 11)

    def test_exhaustive_round_trip_n7(self):
        f = FenwickForest.build(7)
        for bits in itertools.product((0, 1), repeat=7):
            assert decode(f, f.encode(bits)) == bits

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            FenwickForest.build(4).encode([0, 1])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_round_trip_and_prefix_parity(self, data):
        n_sites = data.draw(st.integers(1, 12))
        sizes = []
        left = n_sites
        while left:
            s = data.draw(st.integers(1, left))
            sizes.append(s)
            left -= s
        bits = tuple(data.draw(st.integers(0, 1)) for _ in range(n_sites))
        f = FenwickForest.build(n_sites, sizes)
        code = f.encode(bits)
        assert decode(f, code) == bits
        # Parity contract: summing the code over P(j) recovers the
        # occupancy prefix parity below j.
        for j in range(n_sites):
            prefix = sum(bits[:j]) % 2
            assert sum(code[k] for k in f.parity_set(j)) % 2 == prefix
