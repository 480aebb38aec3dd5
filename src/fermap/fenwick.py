"""Fenwick trees and segmented Fenwick forests over linearly indexed sites.

A forest partitions the sites into contiguous segments and builds one
Fenwick tree per segment by the midpoint recursion: connect the right
end R of a range to floor((L+R)/2) and recurse into the two halves.
Every parent index therefore exceeds its child's, and each segment is
rooted at its last index.  The recursion records each site's sets as
int bitmasks; the set queries read their bits out as sorted tuples.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .pauli import _Value


def _members(mask: int) -> tuple[int, ...]:
    return tuple(q for q in range(mask.bit_length()) if mask >> q & 1)


class FenwickForest(_Value):
    """Immutable parent/child structure over ``n_sites`` sites.

    Bit q of ``children_mask[j]``, ``ancestor_mask[j]`` and ``parity_mask[j]``
    marks q in F(j), U(j) and P(j) = F(j) u C(j) u the earlier roots.
    ``build`` fills them in ``connect(left, right, below, above)``, which
    roots [left, right] at ``right``: the sums stored at ``below`` give the
    parity of the sites before ``left``, and ``above`` is U(right), so at
    a singleton j they are P(j) and U(j).  ``segments`` holds half-open
    [start, stop) ranges.
    """

    __slots__ = ("n_sites", "parent", "segments", "roots",
                 "children_mask", "ancestor_mask", "parity_mask")

    def __init__(self, n_sites: int, parent: tuple, segments: tuple, roots: tuple,
                 children_mask: tuple, ancestor_mask: tuple, parity_mask: tuple):
        self.n_sites, self.parent, self.segments, self.roots = n_sites, parent, segments, roots
        self.children_mask, self.ancestor_mask = children_mask, ancestor_mask
        self.parity_mask = parity_mask

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
        children = [0] * n_sites
        ancestors = [0] * n_sites
        parity = [0] * n_sites

        def connect(left: int, right: int, below: int, above: int):
            if left == right:
                parity[right], ancestors[right] = below, above
                return
            mid = (left + right) // 2
            parent[mid] = right
            children[right] |= 1 << mid
            connect(left, mid, below, above | 1 << right)
            connect(mid + 1, right, below | 1 << mid, above)

        segments = []
        below = start = 0
        for size in sizes:
            stop = start + size
            connect(start, stop - 1, below, 0)
            below |= 1 << (stop - 1)  # the roots of the segments so far
            segments.append((start, stop))
            start = stop
        return cls(
            n_sites=n_sites,
            parent=tuple(parent),
            segments=tuple(segments),
            roots=tuple(stop - 1 for _, stop in segments),
            children_mask=tuple(children),
            ancestor_mask=tuple(ancestors),
            parity_mask=tuple(parity),
        )

    def _check_index(self, j: int):
        if not 0 <= j < self.n_sites:
            raise IndexError(f"site {j} outside range of {self.n_sites}")

    def children(self, j: int) -> tuple[int, ...]:
        """F(j): the children of site j."""
        self._check_index(j)
        return _members(self.children_mask[j])

    def ancestors(self, j: int) -> tuple[int, ...]:
        """U(j): all ancestors of j within its tree, in increasing order."""
        self._check_index(j)
        return _members(self.ancestor_mask[j])

    def lesser_cousins(self, j: int) -> tuple[int, ...]:
        """C(j): children, with index below j, of every ancestor of j."""
        self._check_index(j)
        # Each site has one parent, so the ancestors' child masks are disjoint.
        cousins = sum(self.children_mask[a] for a in _members(self.ancestor_mask[j]))
        return _members(cousins & ((1 << j) - 1))

    def parity_set(self, j: int) -> tuple[int, ...]:
        """P(j) = F(j) u C(j) plus the roots of all earlier segments."""
        self._check_index(j)
        return _members(self.parity_mask[j])

    def depth(self) -> int:
        """Depth of the deepest tree in the forest."""
        return max(mask.bit_count() for mask in self.ancestor_mask)

    def _check_bits(self, bits: Sequence[int]) -> int:
        vals = [int(b) for b in bits]
        if len(vals) != self.n_sites:
            raise ValueError(
                f"bit string length {len(vals)} does not match {self.n_sites} sites"
            )
        if any(b not in (0, 1) for b in vals):
            raise ValueError("bits must be 0 or 1")
        return sum(b << j for j, b in enumerate(vals))  # bits[j] at bit j

    def encode(self, occupancies: Sequence[int]) -> tuple[int, ...]:
        """Map occupancies n to stored partial sums x, x_j = n_j + sum_{k in F(j)} x_k mod 2.

        No ``src/`` caller: the tests' reference for ``verify.codewords``' Majorana walk."""
        x = self._check_bits(occupancies)
        for j, kids in enumerate(self.children_mask):  # children precede parents
            x ^= ((x & kids).bit_count() & 1) << j  # bit j turns from n_j to x_j
        return tuple(x >> j & 1 for j in range(self.n_sites))
