"""Fermionic lattice Hamiltonians and the combinatorics shared by encoders.

Models are sums of Majorana monomials over spin-orbital modes, the normal
form of Bravyi and Kitaev (Ann. Phys. 298, 210 (2002)).  Majorana 2j is
c_j = a_j + a^dag_j and 2j + 1 is d_j = i (a^dag_j - a_j); a term is
(coeff, monomial), the monomial a tuple of Majorana indices in written
order, never sorted.  A hop is two monomials c_i d_j and c_j d_i, the
number operator n_j = (1 + i c_j d_j) / 2 is two and n_i n_j is four.
A lattice is its sides: (w, h) for a w x h rectangle (w columns, h rows)
and (w,) * D for a hypercube of dimension D and side w.  Site ids are mixed
radix over the sides, axis 0 fastest (r * w + c on a rectangle).  A lattice
carries 2 * sites modes: the spin-down block occupies mode indices
[0, sites) and spin-up occupies [sites, 2*sites).

The module also hosts the Fock-space oracle: ``fock_column`` applies a
model to one occupation-basis state with explicit antisymmetric sign
bookkeeping, and the verification suite uses it as the reference
representation independent of any Pauli-string pathway; ``fock_matrix``
writes its columns into a dense matrix for the tests.  Every command
that writes a CSV loads this module, so the one CSV writer lives here.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

from .pauli import DENSE_CAP_DEFAULT, DenseCapError, _Value

Term = tuple[complex, tuple[int, ...]]


class FermionOperator(_Value):
    """A sum of Majorana monomials: (coeff, indices), index 2j = c_j and 2j + 1 = d_j."""

    __slots__ = ("n_modes", "terms")

    def __init__(self, n_modes: int, terms: tuple[Term, ...]):
        for coeff, monomial in terms:
            for index in monomial:
                if not 0 <= index < 2 * n_modes:
                    raise IndexError(f"Majorana {index} outside register of {n_modes} modes")
        self.n_modes, self.terms = n_modes, terms

    @classmethod
    def zero(cls, n_modes: int) -> "FermionOperator":
        return cls(n_modes, ())

    @classmethod
    def term(
        cls, n_modes: int, coeff: complex, monomial: Iterable[int]
    ) -> "FermionOperator":
        return cls(n_modes, ((complex(coeff), tuple(monomial)),))

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


class LatticeSpec(_Value):
    """Rectangular or hypercubic lattice with a site ordering and spin layout; ``snake`` is a
    raster along the short side, not the boustrophedon of ``aux_fermion.snake_path``."""

    __slots__ = ("kind", "w", "h", "dim", "ordering", "__dict__")

    def __init__(self, kind: str, w: int, h: int = 1, dim: int = 2, ordering: str = "snake"):
        if kind not in ("rectangle", "hypercube"):
            raise ValueError(f"unknown lattice kind {kind!r}")
        if ordering not in ("row_major", "snake"):
            raise ValueError(f"unknown ordering {ordering!r}")
        if kind == "hypercube" and ordering != "row_major":
            raise ValueError("hypercubes order their sites row-major only")
        self.kind, self.w, self.h, self.dim, self.ordering = kind, w, h, dim, ordering

    @classmethod
    def rectangle(cls, w: int, h: int, ordering: str = "snake") -> "LatticeSpec":
        if w < 1 or h < 1:
            raise ValueError("rectangle dimensions must be at least 1")
        return cls(kind="rectangle", w=w, h=h, dim=2, ordering=ordering)

    @classmethod
    def hypercube(cls, dim: int, w: int) -> "LatticeSpec":
        if dim < 1 or w < 1:
            raise ValueError("hypercube needs dim >= 1 and side >= 1")
        return cls(kind="hypercube", w=w, h=1, dim=dim, ordering="row_major")

    @functools.cached_property
    def sides(self) -> tuple[int, ...]:
        """Side length per axis, (w, h) or (w,) * dim; site ids are mixed
        radix over them, axis 0 fastest."""
        return (self.w, self.h) if self.kind == "rectangle" else (self.w,) * self.dim

    @functools.cached_property  # mode_index reads it once per mode
    def n_sites(self) -> int:
        return math.prod(self.sides)

    @property
    def n_modes(self) -> int:
        return 2 * self.n_sites

    def edges(self) -> list[tuple[int, int, str]]:
        """Undirected edges (i, i + stride of axis a) with a term class, by site i, then axis a.

        Classes are ``horizontal``/``vertical`` on rectangles, ``axis{a}`` on hypercubes."""
        sides = self.sides
        names = (("horizontal", "vertical") if self.kind == "rectangle"
                 else [f"axis{a}" for a in range(self.dim)])
        axes = [(side, math.prod(sides[:a]), names[a]) for a, side in enumerate(sides)]
        return [(i, i + stride, name) for i in range(self.n_sites)
                for side, stride, name in axes if i // stride % side + 1 < side]

    @functools.cached_property
    def site_order(self) -> tuple[int, ...]:
        """Bijection canonical site id -> position within a spin block.

        ``row_major`` (every hypercube) keeps the canonical raster.
        ``snake`` is the locality-optimal raster of a rectangle whose
        consecutive indices run along its shortest side, so every hop
        along that side is a nearest-index pair.
        """
        n = self.n_sites
        if self.ordering == "row_major" or self.w <= self.h:
            return tuple(range(n))
        # Wide rectangle: transpose, so site r * w + c sits at c * h + r.
        return tuple(i % self.w * self.h + i // self.w for i in range(n))

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
    return FermionOperator(n_modes, ((pair, (2 * i, 2 * j + 1)), (pair, (2 * j, 2 * i + 1))))


def number_product(n_modes: int, modes: Sequence[int], coeff: complex) -> FermionOperator:
    """coeff * n_a n_b ... over distinct ``modes``, each n_j = (1 + i c_j d_j) / 2 expanded
    factor by factor: every term so far, then that term times i c_j d_j."""
    terms = [(complex(coeff / 2 ** len(modes)), ())]
    for m in modes:
        pair = (2 * m, 2 * m + 1)
        terms = [t for c, mono in terms for t in ((c, mono), (1j * c, mono + pair))]
    return FermionOperator(n_modes, tuple(terms))


def hubbard_terms(
    spec: LatticeSpec, t: float, u: float, eps: float = 0.0, spins: Sequence[int] = (0, 1)
) -> list[tuple[str, FermionOperator]]:
    """The Hubbard Hamiltonian as (term class, Hermitian term) pairs.

    Classes are the edge classes of the lattice for hopping,
    "density-density" for the on-site repulsion, and "onsite" for the
    optional single-particle energy.  Hops and on-site energies are built
    for the spin blocks in ``spins`` only; the repulsion couples both.
    """
    n, out = spec.n_modes, []
    if t != 0.0:
        for i, j, klass in spec.edges():
            for spin in spins:
                hop = hopping_pair(n, spec.mode_index(i, spin), spec.mode_index(j, spin), -t)
                out.append((klass, hop))
    for site in range(spec.n_sites):
        if u != 0.0:
            pair = (spec.mode_index(site, 1), spec.mode_index(site, 0))
            out.append(("density-density", number_product(n, pair, u)))
        if eps != 0.0:
            for spin in spins:
                out.append(("onsite", number_product(n, (spec.mode_index(site, spin),), eps)))
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
# state at a time, its rightmost Majorana first, and no Majorana kills a
# state: d_j multiplies by i if n_j = 0 and by -i if n_j = 1, then c_j and
# d_j alike multiply by (-1)^(number of occupied modes below j) and flip
# bit j.  This is a direct occupation-number construction and shares no
# code with the Pauli-string pathway.
# ---------------------------------------------------------------------------


def fock_column(op: FermionOperator, state: int) -> dict[int, complex]:
    """Column ``state`` of the Fock matrix of ``op``, as {row state: amplitude}."""
    column: dict[int, complex] = {}
    for coeff, monomial in op.terms:
        s, amp = state, coeff
        for index in reversed(monomial):
            mode = index >> 1
            if index & 1:
                amp *= -1j if s >> mode & 1 else 1j
            amp = -amp if (s & ((1 << mode) - 1)).bit_count() % 2 else amp
            s ^= 1 << mode
        column[s] = column.get(s, 0j) + amp
    return {s: amp for s, amp in column.items() if amp}


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


def versioned_csv(tag: str, header: str, rows: Iterable[Sequence]) -> str:
    """``# fermap <tag> v1: <header>``, the header, then one line per row.

    ``None`` cells are written blank.
    """
    lines = [f"# fermap {tag} v1: {header}", header]
    lines += [",".join("" if v is None else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"
