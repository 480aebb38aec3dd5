"""Tree-based fermion-to-qubit encodings (JW, BK, Fenwick forests), and the encoder.

All three are instances of one family: a Fenwick forest over the modes
fixes, for every mode j, the parity set P(j) (Z support), the update set
U(j) of ancestors (X support) and the lesser-cousin set used by the
second Majorana.  The all-singleton forest is the Jordan-Wigner limit,
a single tree is the Bravyi-Kitaev transform, and arbitrary segment
lists interpolate between them.

Majorana convention: c_j = a_j + a^dag_j and d_j = i (a^dag_j - a_j),
the Majoranas 2j and 2j + 1 of a ``models.FermionOperator`` monomial.

Every encoding is a table of raw masks: a forest spec ORs, once, the
masks (x, z_c, z_d) of every mode's c_j and d_j from the forest's masks
(``EncodingSpec.majoranas``); ``lsfs.LsfsSpec`` keeps one (x, z, coeff)
per directed edge for its Majorana pairs.  One synthesis path serves
every spec: ``encode_model`` asks the spec for each monomial's string
(``monomial``: its first table entry, times each later one with
``pauli._mul_masks`` in written order) and sums the terms in one ``_add_terms``.
``model_encoding`` picks a lattice model's forest, ``majorana_c``/
``majorana_d`` build one entry's string, and ``hopping_op`` one hop.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

from .fenwick import FenwickForest
from .models import FermionOperator, LatticeSpec, hopping_pair
from .pauli import _PHASES, PauliString, QubitOperator, _add_terms, _mul_masks, _Value


class EncodingSpec(_Value):
    """An encoding family member: its Fenwick forest, read as a Majorana table."""

    __slots__ = ("forest", "__dict__")

    def __init__(self, forest: FenwickForest):
        self.forest = forest

    @classmethod
    def jordan_wigner(cls, n_modes: int) -> "EncodingSpec":
        return cls(FenwickForest.build(n_modes, [1] * n_modes))

    @classmethod
    def bravyi_kitaev(cls, n_modes: int) -> "EncodingSpec":
        return cls(FenwickForest.build(n_modes))

    @classmethod
    def from_segments(cls, segment_sizes: Sequence[int]) -> "EncodingSpec":
        return cls(FenwickForest.build(sum(segment_sizes), segment_sizes))

    @property
    def n_modes(self) -> int:
        return self.forest.n_sites

    @property
    def n_qubits(self) -> int:
        return self.n_modes

    @property
    def kind(self) -> str:
        """The forest's shape: "jw" if every tree is a singleton, "bk" if
        there is one tree, "forest" otherwise."""
        segments = self.forest.segments
        if all(stop - start == 1 for start, stop in segments):
            return "jw"
        return "bk" if len(segments) == 1 else "forest"

    @functools.cached_property
    def majoranas(self) -> tuple[tuple[int, int, int], ...]:
        """Per mode j, the masks (x, z_c, z_d) of c_j and d_j, ORed once from the forest's.

        c_j: Z on P(j), X on j and U(j).  d_j: Y on j instead, no Z on F(j).
        """
        masks = zip(self.forest.ancestor_mask, self.forest.parity_mask, self.forest.children_mask)
        return tuple(
            (ancestors | 1 << j, parity, parity & ~children | 1 << j)
            for j, (ancestors, parity, children) in enumerate(masks)
        )

    def monomial(self, indices) -> tuple[int, int, complex]:
        """Masks (x, z) and phase of the product of the Majoranas at ``indices``, in order:
        the first one's table entry, times each later one's with ``_mul_masks``."""
        table, x, z, exp = self.majoranas, 0, 0, 0
        for n, index in enumerate(indices):
            x_j, z_c, z_d = table[index >> 1]
            z_j = z_d if index & 1 else z_c
            x, z, step = _mul_masks(x, z, x_j, z_j) if n else (x_j, z_j, 0)
            exp += step
        return x, z, _PHASES[exp % 4]


def sbk_row_segments(width: int, n_rows: int, segment_size: int) -> list[int]:
    """Chunk every row of the given width into trees of the given size."""
    if segment_size < 1:
        raise ValueError("segment size must be at least 1")
    if segment_size > width:  # no row of that width holds a larger tree
        raise ValueError(f"segment size {segment_size} exceeds the row width {width}")
    per_row = []
    left = width
    while left:
        step = min(segment_size, left)
        per_row.append(step)
        left -= step
    return per_row * n_rows


def model_encoding(
    kind: str,
    lattice: LatticeSpec,
    segment_size: Optional[int] = None,
) -> EncodingSpec:
    """Forest spec over the 2 * sites modes of a lattice model.

    ``jw`` uses singleton trees, ``bk`` one tree per spin block, and
    ``sbk`` one tree per row chunk of ``segment_size`` (default: half
    rows, ``(width + 1) // 2``; the sweep finds that optimal only at
    power-of-two widths).  Rows are rows of the *ordered* modes: a row-major
    row is every axis but the last (``w`` sites on a rectangle, a slab of
    w**(D-1) on a hypercube), and a snake row is a run of the short side.
    """
    sites = lattice.n_sites
    if kind == "jw":
        return EncodingSpec.jordan_wigner(2 * sites)
    if kind == "bk":
        return EncodingSpec.from_segments([sites, sites])
    if kind != "sbk":
        raise ValueError(f"unknown model encoding {kind!r}")
    sides = lattice.sides
    width = math.prod(sides[:-1]) if lattice.ordering == "row_major" else min(sides)
    if segment_size is None:
        segment_size = max(1, (width + 1) // 2)
    per_spin = sbk_row_segments(width, sites // width, segment_size)
    return EncodingSpec.from_segments(per_spin * 2)


def majorana_c(spec: EncodingSpec, j: int) -> QubitOperator:
    """c_j = a_j + a^dag_j: Z on the parity set, X on j and its ancestors."""
    spec.forest._check_index(j)  # a negative j would index from the end
    x, z_c, _ = spec.majoranas[j]
    return QubitOperator.from_paulistring(PauliString(spec.n_qubits, x, z_c))


def majorana_d(spec: EncodingSpec, j: int) -> QubitOperator:
    """d_j = i (a^dag_j - a_j): like c_j but Y on j and no Z on j's children."""
    spec.forest._check_index(j)
    x, _, z_d = spec.majoranas[j]
    return QubitOperator.from_paulistring(PauliString(spec.n_qubits, x, z_d))


def hopping_op(spec: EncodingSpec, j: int, k: int) -> QubitOperator:
    """a^dag_j a_k + a^dag_k a_j = (i/2)(c_k d_j + c_j d_k)."""
    return encode_model(spec, hopping_pair(spec.n_modes, j, k))


def encode_model(spec, model: FermionOperator) -> QubitOperator:
    """Map a FermionOperator to qubits under any spec, one string per term.

    The spec sets the register (``n_qubits``) and maps each term's
    monomial to one phased string (``monomial``) in the order written,
    with no normal ordering.
    """
    n = spec.n_modes
    if model.n_modes > n:
        raise IndexError(f"model has {model.n_modes} modes, encoding only {n}")
    total = QubitOperator.zero(spec.n_qubits)
    _add_terms(total._terms, (((x, z), coeff * phase) for coeff, monomial in model.terms
                              for x, z, phase in [spec.monomial(monomial)]))
    return total
