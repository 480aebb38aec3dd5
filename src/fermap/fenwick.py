"""Fenwick trees and segmented Fenwick forests over linearly indexed sites.

A forest partitions the sites into contiguous segments and builds one
Fenwick tree per segment by the midpoint recursion: connect the right
end R of a range to floor((L+R)/2) and recurse into the two halves.
Every parent index therefore exceeds its child's, and each segment is
rooted at its last index.  The forest answers the set queries needed by
the tree-based fermion encodings (children, ancestors, lesser cousins
and the parity set) and performs the occupancy <-> partial-sum bit
transcoding, all deterministically (set queries return sorted tuples).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional, Sequence


@dataclass(frozen=True)
class FenwickForest:
    """Immutable parent/child structure over ``n_sites`` sites."""

    n_sites: int
    parent: tuple[Optional[int], ...]
    segments: tuple[tuple[int, int], ...]  # half-open [start, stop) ranges
    roots: tuple[int, ...]
    _children: tuple[tuple[int, ...], ...] = field(repr=False)

    @classmethod
    def build(
        cls, n_sites: int, segment_sizes: Optional[Sequence[int]] = None
    ) -> "FenwickForest":
        """Build a forest; one tree over all sites when no sizes are given."""
        if n_sites < 1:
            raise ValueError("n_sites must be at least 1")
        if segment_sizes is None:
            segment_sizes = [n_sites]
        sizes = [int(s) for s in segment_sizes]
        if any(s < 1 for s in sizes):
            raise ValueError("segment sizes must be at least 1")
        if sum(sizes) != n_sites:
            raise ValueError(
                f"segment sizes sum to {sum(sizes)}, expected {n_sites}"
            )

        parent: list[Optional[int]] = [None] * n_sites
        children: list[list[int]] = [[] for _ in range(n_sites)]

        def connect(left: int, right: int):
            if left == right:
                return
            mid = (left + right) // 2
            parent[mid] = right
            children[right].append(mid)
            connect(left, mid)
            connect(mid + 1, right)

        segments = []
        roots = []
        start = 0
        for size in sizes:
            stop = start + size
            connect(start, stop - 1)
            segments.append((start, stop))
            roots.append(stop - 1)
            start = stop
        return cls(
            n_sites=n_sites,
            parent=tuple(parent),
            segments=tuple(segments),
            roots=tuple(roots),
            _children=tuple(tuple(sorted(c)) for c in children),
        )

    def _check_index(self, j: int):
        if not 0 <= j < self.n_sites:
            raise IndexError(f"site {j} outside range of {self.n_sites}")

    def children(self, j: int) -> tuple[int, ...]:
        """F(j): the children of site j."""
        self._check_index(j)
        return self._children[j]

    def ancestors(self, j: int) -> tuple[int, ...]:
        """U(j): all ancestors of j within its tree, in increasing order."""
        self._check_index(j)
        out = []
        node = self.parent[j]
        while node is not None:
            out.append(node)
            node = self.parent[node]
        return tuple(sorted(out))

    def lesser_cousins(self, j: int) -> tuple[int, ...]:
        """C(j): children, with index below j, of every ancestor of j."""
        self._check_index(j)
        out = [c for anc in self.ancestors(j) for c in self._children[anc] if c < j]
        return tuple(sorted(out))

    def roots_before(self, j: int) -> tuple[int, ...]:
        """Roots of earlier segments, i.e. all roots with index below j."""
        self._check_index(j)
        cut = bisect.bisect_left(self.roots, j)
        return self.roots[:cut]

    def parity_set(self, j: int) -> tuple[int, ...]:
        """P(j) = F(j) u C(j) plus the roots of all earlier segments."""
        self._check_index(j)
        out = set(self._children[j])
        out.update(self.lesser_cousins(j))
        out.update(self.roots_before(j))
        return tuple(sorted(out))

    def depth_of(self, j: int) -> int:
        return len(self.ancestors(j))

    def depth(self) -> int:
        """Depth of the deepest tree in the forest."""
        return max(self.depth_of(j) for j in range(self.n_sites))

    def _check_bits(self, bits: Sequence[int]) -> list[int]:
        vals = [int(b) for b in bits]
        if len(vals) != self.n_sites:
            raise ValueError(
                f"bit string length {len(vals)} does not match {self.n_sites} sites"
            )
        if any(b not in (0, 1) for b in vals):
            raise ValueError("bits must be 0 or 1")
        return vals

    def encode(self, occupancies: Sequence[int]) -> tuple[int, ...]:
        """Map occupancies n to stored partial sums x, x_j = n_j + sum_{k in F(j)} x_k mod 2."""
        n = self._check_bits(occupancies)
        x = [0] * self.n_sites
        for j in range(self.n_sites):  # children precede parents
            x[j] = (n[j] + sum(x[k] for k in self._children[j])) % 2
        return tuple(x)

    def decode(self, code: Sequence[int]) -> tuple[int, ...]:
        """Invert :meth:`encode` exactly."""
        x = self._check_bits(code)
        return tuple(
            (x[j] + sum(x[k] for k in self._children[j])) % 2
            for j in range(self.n_sites)
        )
