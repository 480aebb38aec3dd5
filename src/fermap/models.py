"""Fermionic lattice Hamiltonians and the combinatorics shared by encoders.

Models are plain sums of factor products over spin-orbital modes: ladder
(``+``, ``-``), number (``n``) and Majorana factors c_j = a_j + a^dag_j
(``c``) and d_j = i (a^dag_j - a_j) (``d``); a hop is two Majorana pairs.
A rectangular w x h lattice (w columns, h rows, row-major site ids) or a
hypercubic lattice of dimension D and side w carries 2 * sites modes: the
spin-down block occupies mode indices [0, sites) and spin-up occupies
[sites, 2*sites).

The module also hosts the Fock-space oracle: ``fock_column`` applies a
model to one occupation-basis state with explicit antisymmetric sign
bookkeeping, and the verification suite uses it as the reference
representation independent of any Pauli-string pathway; ``fock_matrix``
writes its columns into a dense matrix for the tests.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .pauli import DENSE_CAP_DEFAULT, DenseCapError

RAISE = "+"
LOWER = "-"
NUMBER = "n"
MAJORANA_C = "c"
MAJORANA_D = "d"
_FLAVORS = (RAISE, LOWER, NUMBER, MAJORANA_C, MAJORANA_D)

Factor = tuple[int, str]
Term = tuple[complex, tuple[Factor, ...]]


@dataclass(frozen=True)
class FermionOperator:
    """A sum of products of site-indexed ladder, number and Majorana factors."""

    n_modes: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        for coeff, factors in self.terms:
            for mode, flavor in factors:
                if not 0 <= mode < self.n_modes:
                    raise IndexError(
                        f"mode {mode} outside register of {self.n_modes}"
                    )
                if flavor not in _FLAVORS:
                    raise ValueError(f"unknown factor flavor {flavor!r}")

    @classmethod
    def zero(cls, n_modes: int) -> "FermionOperator":
        return cls(n_modes, ())

    @classmethod
    def term(
        cls, n_modes: int, coeff: complex, factors: Iterable[Factor]
    ) -> "FermionOperator":
        return cls(n_modes, ((complex(coeff), tuple(factors)),))

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        if not isinstance(other, FermionOperator):
            return NotImplemented
        if self.n_modes != other.n_modes:
            raise ValueError("mode counts differ")
        return FermionOperator(self.n_modes, self.terms + other.terms)

    def __rmul__(self, scalar) -> "FermionOperator":
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return FermionOperator(
            self.n_modes,
            tuple((scalar * c, f) for c, f in self.terms),
        )

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class LatticeSpec:
    """Rectangular or hypercubic lattice with a site ordering and spin layout."""

    kind: str  # "rectangle" | "hypercube"
    w: int
    h: int = 1
    dim: int = 2
    ordering: str = "snake"

    @classmethod
    def rectangle(cls, w: int, h: int, ordering: str = "snake") -> "LatticeSpec":
        if w < 1 or h < 1:
            raise ValueError("rectangle dimensions must be at least 1")
        return cls(kind="rectangle", w=w, h=h, dim=2, ordering=ordering)

    @classmethod
    def hypercube(cls, dim: int, w: int, ordering: str = "snake") -> "LatticeSpec":
        if dim < 1 or w < 1:
            raise ValueError("hypercube needs dim >= 1 and side >= 1")
        return cls(kind="hypercube", w=w, h=1, dim=dim, ordering=ordering)

    def __post_init__(self):
        if self.kind not in ("rectangle", "hypercube"):
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if self.ordering not in ("row_major", "snake"):
            raise ValueError(f"unknown ordering {self.ordering!r}")

    @property
    def n_sites(self) -> int:
        if self.kind == "rectangle":
            return self.w * self.h
        return self.w**self.dim

    @property
    def n_modes(self) -> int:
        return 2 * self.n_sites

    # Canonical site ids: row-major r*w + c on rectangles, mixed-radix
    # sum coord_a * w^a on hypercubes (axis 0 fastest).
    def site_id(self, coords: Sequence[int]) -> int:
        if self.kind == "rectangle":
            r, c = coords
            return r * self.w + c
        return sum(coord * self.w**axis for axis, coord in enumerate(coords))

    def edges(self) -> list[tuple[int, int, str]]:
        """Undirected interaction edges (i < j by site id) with a term class."""
        out = []
        if self.kind == "rectangle":
            for r in range(self.h):
                for c in range(self.w):
                    here = self.site_id((r, c))
                    if c + 1 < self.w:
                        out.append((here, self.site_id((r, c + 1)), "horizontal"))
                    if r + 1 < self.h:
                        out.append((here, self.site_id((r + 1, c)), "vertical"))
            return out
        for coords in itertools.product(range(self.w), repeat=self.dim):
            here = self.site_id(coords)
            for axis in range(self.dim):
                if coords[axis] + 1 < self.w:
                    step = list(coords)
                    step[axis] += 1
                    out.append((here, self.site_id(step), f"axis{axis}"))
        return out

    @functools.cached_property
    def site_order(self) -> tuple[int, ...]:
        """Bijection canonical site id -> position within a spin block.

        ``row_major`` keeps the canonical raster.  ``snake`` is the
        locality-optimal raster whose consecutive indices run along the
        shortest lattice side, so every hop along that side is a
        nearest-index pair.
        """
        n = self.n_sites
        if self.ordering == "row_major" or self.kind == "hypercube":
            return tuple(range(n))
        if self.w <= self.h:
            return tuple(range(n))
        # Wide rectangle: transpose so consecutive indices run down columns.
        order = [0] * n
        for r in range(self.h):
            for c in range(self.w):
                order[r * self.w + c] = c * self.h + r
        return tuple(order)

    def mode_index(self, site: int, spin: int) -> int:
        """Mode of (site, spin), spin 0 = down block, spin 1 = up block."""
        if spin not in (0, 1):
            raise ValueError("spin must be 0 (down) or 1 (up)")
        return self.site_order[site] + spin * self.n_sites


def hopping_pair(n_modes: int, i: int, j: int, coeff: complex = 1.0) -> FermionOperator:
    """coeff * (a^dag_i a_j + a^dag_j a_i) = (i coeff / 2)(c_i d_j + c_j d_i)."""
    if i == j:
        raise ValueError("hopping needs two distinct modes")
    pair = 0.5j * coeff
    c, d = MAJORANA_C, MAJORANA_D
    return FermionOperator(n_modes, ((pair, ((i, c), (j, d))), (pair, ((j, c), (i, d)))))


def hubbard_terms(
    spec: LatticeSpec, t: float, u: float, eps: float = 0.0
) -> list[tuple[str, FermionOperator]]:
    """The Hubbard Hamiltonian as (term class, Hermitian term) pairs.

    Classes are the edge classes of the lattice for hopping,
    "density-density" for the on-site repulsion, and "onsite" for the
    optional single-particle energy.
    """
    n = spec.n_modes
    out: list[tuple[str, FermionOperator]] = []
    for i, j, klass in spec.edges():
        for spin in (0, 1):
            if t != 0.0:
                out.append(
                    (
                        klass,
                        hopping_pair(
                            n, spec.mode_index(i, spin), spec.mode_index(j, spin), -t
                        ),
                    )
                )
    for site in range(spec.n_sites):
        if u != 0.0:
            out.append(
                (
                    "density-density",
                    FermionOperator.term(
                        n,
                        u,
                        (
                            (spec.mode_index(site, 1), NUMBER),
                            (spec.mode_index(site, 0), NUMBER),
                        ),
                    ),
                )
            )
        if eps != 0.0:
            for spin in (0, 1):
                out.append(
                    (
                        "onsite",
                        FermionOperator.term(
                            n, eps, ((spec.mode_index(site, spin), NUMBER),)
                        ),
                    )
                )
    return out


def hubbard(spec: LatticeSpec, t: float, u: float, eps: float = 0.0) -> FermionOperator:
    """The full Hubbard Hamiltonian on the given lattice."""
    pieces = hubbard_terms(spec, t, u, eps)
    return FermionOperator(
        spec.n_modes, tuple(term for _, op in pieces for term in op.terms)
    )


# ---------------------------------------------------------------------------
# Fock-space oracle.
#
# Basis state s has occupancy n_j = bit j of s.  A term acts on one basis
# state at a time, its rightmost factor first: a factor kills the state
# (a_j needs n_j = 1, a^dag_j needs n_j = 0, n_j keeps an occupied one,
# c_j and d_j keep all; d_j multiplies by i if n_j = 0 and by -i if
# n_j = 1), and every factor but n_j then multiplies by (-1)^(number of
# occupied modes below j) and flips bit j.  This is a direct occupation-
# number construction and shares no code with the Pauli-string pathway.
# ---------------------------------------------------------------------------


def fock_column(op: FermionOperator, state: int) -> dict[int, complex]:
    """Column ``state`` of the Fock matrix of ``op``, as {row state: amplitude}."""
    column: dict[int, complex] = {}
    for coeff, factors in op.terms:
        s, amp = state, coeff
        for mode, flavor in reversed(factors):
            occupied = s >> mode & 1 == 1
            if flavor == MAJORANA_D:
                amp *= -1j if occupied else 1j
            elif flavor != MAJORANA_C and occupied == (flavor == RAISE):
                break  # a^dag_j kills an occupied mode, a_j and n_j an empty one
            if flavor != NUMBER:
                amp = -amp if (s & ((1 << mode) - 1)).bit_count() % 2 else amp
                s ^= 1 << mode
        else:
            column[s] = column.get(s, 0j) + amp
    return column


def fock_matrix(op: FermionOperator, cap: int = DENSE_CAP_DEFAULT):
    """Dense numpy matrix of a FermionOperator in the occupation-number basis."""
    import numpy as np
    if op.n_modes > cap:
        raise DenseCapError(f"{op.n_modes} modes exceeds dense cap of {cap}")
    dim = 1 << op.n_modes
    total = np.zeros((dim, dim), dtype=complex)
    for src in range(dim):
        for row, amp in fock_column(op, src).items():
            total[row, src] = amp
    return total
