"""Loop-stabilized fermion simulation on rectangular lattices.

One qubit sits on every nearest-neighbour edge of a w x h grid.  Vertex
generators are crosses of Z on the incident edges; edge generators put X
on their own edge and Z on the lower-indexed incident edges of both
endpoints, signed by the antisymmetric tensor eps_jk (+1 for j > k).
Products of the four edge generators around a unit plaquette are the
stabilizers whose joint +1 eigenspace carries the encoded fermions.

Vertices are the row-major site ids (r * w + c) of
``LatticeSpec.rectangle(w, h)``, and edge qubits number its ``edges()``
with every horizontal edge first, each kind in the lattice's row-major
order; this fixes deterministic operator serialization.  Each layout
builds one incidence table (vertex -> neighbour -> edge qubit) once and
from it one table of raw masks: (x, z) of the phase-free A string per
edge qubit and z of the B cross per vertex (``generators``), and one
(x, z, phase_exp) loop per plaquette (``loops``).  Every reader takes
the ints; only ``a_op``, ``b_op`` and ``stabilizers`` build strings, to
make operators.

Fermion terms are encoded by ``encodings.encode_model`` under an
``LsfsSpec``, which is a pair table: ``LsfsSpec.pairs`` holds, once per
directed edge (j, k), the masks and coefficient of the Majorana pair
c_j d_k = eps_jk A(jk) B_k, with the phase of that string product.
``LsfsSpec.monomial`` starts at a monomial's first pair in that table and
multiplies in each later one, each shifted into its spin block, with
c_k d_k = i B_k at every vertex, so
n_k = (1 + i c_k d_k) / 2 is (1 - B_k) / 2.  A hop
(i/2)(c_j d_k + c_k d_j) then expands, on a horizontal edge, to
(1/2) Y_k^right (Z_k^down Z_{k+1}^up - Z_k^up Z_k^left Z_{k+1}^right
Z_{k+1}^down); the lattice is bipartite, so the codespace spectrum is
insensitive to the global sign of eps (the Fock oracle in fermap.verify
pins the equivalence).

Both Hamiltonians take that one path from the one Hubbard builder on the
row-major lattice: ``single_spin_hamiltonian`` encodes block 0 of
``models.hubbard_terms`` under a one-block spec, ``hubbard_lsfs`` all of
``models.hubbard`` under a two-block spec, and each then subtracts
delta/2 times every plaquette loop of each block.
"""

from __future__ import annotations

import functools

from .encodings import encode_model
from .models import FermionOperator, LatticeSpec, hopping_pair, hubbard, hubbard_terms
from .models import number_product
from .pauli import _PHASES, DENSE_CAP_DEFAULT, DenseCapError, PauliString, QubitOperator, _mul_masks
from .pauli import _add_terms, _Value


class EdgeLayout(_Value):
    """Edge-qubit layout of a single-spin w x h rectangular lattice."""

    __slots__ = ("w", "h", "__dict__")

    def __init__(self, w: int, h: int):
        if w < 1 or h < 1 or w * h < 2:
            raise ValueError("layout needs at least two vertices")
        self.w, self.h = w, h

    @property
    def n_vertices(self) -> int:
        return self.w * self.h

    @property
    def n_edges(self) -> int:
        return self.h * (self.w - 1) + self.w * (self.h - 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u < v) in qubit-index order: the lattice's, horizontal first."""
        lattice_edges = LatticeSpec.rectangle(self.w, self.h).edges()
        ordered = sorted(lattice_edges, key=lambda edge: edge[2] != "horizontal")
        return [(u, v) for u, v, _ in ordered]

    @functools.cached_property
    def incidence(self) -> tuple[dict[int, int], ...]:
        """Per vertex, its neighbours mapped to the qubits of their shared edges."""
        table: tuple[dict[int, int], ...] = tuple({} for _ in range(self.n_vertices))
        for qubit, (u, v) in enumerate(self.edges()):
            table[u][v] = table[v][u] = qubit
        return table

    @functools.cached_property
    def generators(self) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        """Masks (x, z) of the phase-free A string per edge qubit, z of the B cross per vertex.

        A(u, v) has X on its edge and Z on every edge (l, u) with l < v and
        (s, v) with s < u; B_k has Z on every edge incident to k.
        """
        table, a = self.incidence, []
        for qubit, (u, v) in enumerate(self.edges()):
            z = sum(1 << e for l, e in table[u].items() if l < v)
            z |= sum(1 << e for s, e in table[v].items() if s < u)
            a.append((1 << qubit, z))
        return tuple(a), tuple(sum(1 << e for e in row.values()) for row in table)

    def edge_index(self, u: int, v: int) -> int:
        """Qubit index of the edge {u, v}; raises on non-edges."""
        for k in sorted((u, v)):
            if not 0 <= k < self.n_vertices:
                raise IndexError(f"vertex {k} outside {self.w}x{self.h} lattice")
        qubit = self.incidence[u].get(v)
        if qubit is None:
            raise ValueError(f"({u}, {v}) is not a lattice edge")
        return qubit

    def plaquettes(self) -> list[tuple[int, int, int, int]]:
        """Unit plaquettes as cyclically ordered vertex quadruples."""
        out = []
        for r in range(self.h - 1):
            for c in range(self.w - 1):
                tl = r * self.w + c
                out.append((tl, tl + 1, tl + 1 + self.w, tl + self.w))
        return out

    @functools.cached_property
    def loops(self) -> tuple[tuple[int, int, int], ...]:
        """A(ab) A(bc) A(cd) A(da) per plaquette as (x, z, phase_exp), phase unchecked so the
        oracle can name a bad loop; the eps_jk cancel (two steps ascend, two descend)."""
        a_masks, table, loops = self.generators[0], self.incidence, []
        for plq in self.plaquettes():
            x = z = exp = 0
            for j, k in zip(plq, plq[1:] + plq[:1]):
                x, z, step = _mul_masks(x, z, *a_masks[table[j][k]])
                exp += step
            loops.append((x, z, exp % 4))
        return tuple(loops)


def _epsilon(j: int, k: int) -> int:
    return 1 if j > k else -1


def b_op(layout: EdgeLayout, k: int) -> QubitOperator:
    """Vertex generator: the cross of Z on all edges incident to k."""
    if not 0 <= k < layout.n_vertices:  # a negative k would index from the end
        raise IndexError(f"vertex {k} outside {layout.w}x{layout.h} lattice")
    return QubitOperator.from_paulistring(PauliString(layout.n_edges, 0, layout.generators[1][k]))


def a_op(layout: EdgeLayout, j: int, k: int) -> QubitOperator:
    """Edge generator eps_jk A(j, k): antisymmetric, squares to identity."""
    x, z = layout.generators[0][layout.edge_index(j, k)]
    return QubitOperator.from_paulistring(PauliString(layout.n_edges, x, z), float(_epsilon(j, k)))


def _hermitian_loops(layout: EdgeLayout) -> tuple[tuple[int, int, int], ...]:
    """``layout.loops``, after checking that each is a +-1 string."""
    if any(exp % 2 for _, _, exp in layout.loops):
        raise AssertionError("plaquette loop produced a non-Hermitian phase")
    return layout.loops


def stabilizers(layout: EdgeLayout) -> list[QubitOperator]:
    """The layout's plaquette loops as operators; each must be a +-1 string."""
    return [QubitOperator.from_paulistring(PauliString(layout.n_edges, *loop))
            for loop in _hermitian_loops(layout)]


class LsfsSpec(_Value):
    """The layout's pair table for ``encode_model`` over ``n_spins`` blocks:
    mode v + s V is vertex v of block s, on edge qubits [s E, (s + 1) E)."""

    __slots__ = ("layout", "n_spins", "__dict__")

    def __init__(self, layout: EdgeLayout, n_spins: int = 1):
        self.layout, self.n_spins = layout, n_spins

    @property
    def n_modes(self) -> int:
        return self.n_spins * self.layout.n_vertices

    @property
    def n_qubits(self) -> int:
        return self.n_spins * self.layout.n_edges

    @functools.cached_property
    def pairs(self) -> dict[tuple[int, int], tuple[int, int, complex]]:
        """Per directed edge (j, k), eps_jk A(jk) B_k as (x, z, coeff) on block 0's qubits."""
        (a, b), table = self.layout.generators, {}
        for j, row in enumerate(self.layout.incidence):
            for k, qubit in row.items():
                x, z, exp = _mul_masks(*a[qubit], 0, b[k])
                table[j, k] = (x, z, _epsilon(j, k) * _PHASES[exp])
        return table

    def monomial(self, indices) -> tuple[int, int, complex]:
        """The first pair c_j d_k of ``indices`` times each later one with ``_mul_masks``:
        ``pairs[j, k]`` on an edge and i B_k for j = k, shifted into the block of j and k."""
        if len(indices) % 2:
            raise ValueError(f"LSFS encodes products of pairs c_j d_k, not {indices}")
        n_v, n_e, b = self.layout.n_vertices, self.layout.n_edges, self.layout.generators[1]
        x, z, exp, coeff = 0, 0, 0, 1 + 0j
        for n, (c, d) in enumerate(zip(indices[::2], indices[1::2])):
            block, j = divmod(c >> 1, n_v)
            k = (d >> 1) - block * n_v  # outside [0, n_v) for a d_k in another block
            pair = (0, b[k], 1j) if j == k else self.pairs.get((j, k))
            if c & 1 or not d & 1 or pair is None:
                raise ValueError(f"LSFS encodes c_j d_k on an edge or a vertex, not {indices}")
            x_p, z_p = pair[0] << block * n_e, pair[1] << block * n_e
            x, z, step = _mul_masks(x, z, x_p, z_p) if n else (x_p, z_p, 0)
            exp, coeff = exp + step, coeff * pair[2]
        return x, z, coeff * _PHASES[exp % 4]


def number_term(layout: EdgeLayout, k: int) -> QubitOperator:
    """Occupation of vertex k: (1 - B_k) / 2."""
    return encode_model(LsfsSpec(layout), number_product(layout.n_vertices, (k,), 1.0))


def hopping_term(layout: EdgeLayout, j: int, k: int) -> QubitOperator:
    """Encoded a^dag_k a_j + a^dag_j a_k for lattice edge (j, k); symmetric in j, k."""
    return encode_model(LsfsSpec(layout), hopping_pair(layout.n_vertices, j, k))


def single_spin_model(layout: EdgeLayout, t: float, eps: float = 0.0) -> FermionOperator:
    """Block 0 of ``models.hubbard_terms`` on the layout's vertices: -t per hop, eps per n_k."""
    lattice = LatticeSpec.rectangle(layout.w, layout.h, "row_major")
    pieces = hubbard_terms(lattice, t, 0.0, eps, spins=(0,))
    return FermionOperator(layout.n_vertices, tuple(term for _, op in pieces for term in op.terms))


def _penalized(spec: LsfsSpec, total: QubitOperator, delta: float) -> QubitOperator:
    """``total`` minus delta/2 times every plaquette loop of each spin block, block 0 first."""
    if delta != 0.0:
        loops, n_e = _hermitian_loops(spec.layout), spec.layout.n_edges
        for shift in range(0, spec.n_qubits, n_e):
            terms = (((x << shift, z << shift), -delta / 2 * _PHASES[exp]) for x, z, exp in loops)
            _add_terms(total._terms, terms)
    return total


def single_spin_hamiltonian(
    layout: EdgeLayout, t: float, eps: float = 0.0, delta: float = 0.0
) -> QubitOperator:
    """The encoded ``single_spin_model``, with optional stabilizer penalty."""
    spec = LsfsSpec(layout)
    return _penalized(spec, encode_model(spec, single_spin_model(layout, t, eps)), delta)


def hubbard_lsfs(
    w: int,
    h: int,
    t: float,
    u: float,
    eps: float = 0.0,
    delta: float = 0.0,
) -> QubitOperator:
    """Two-spin-lattice Hubbard Hamiltonian on 4wh - 2w - 2h edge qubits.

    ``encode_model`` of ``models.hubbard`` on the row-major w x h lattice
    under a two-block ``LsfsSpec``: spin-down on edge qubits [0, E),
    spin-up on [E, 2E), and n_k n_k' = (1 - B)(1 - B')/4 couples matching
    vertices.  The penalty subtracts delta/2 times every stabilizer of both
    blocks.  Strips (w or h = 1, at least two sites) have no plaquettes, so
    no stabilizers; a 1x1 lattice raises ``ValueError``, as ``EdgeLayout`` does.
    """
    spec = LsfsSpec(EdgeLayout(w, h), 2)
    model = hubbard(LatticeSpec.rectangle(w, h, "row_major"), t, u, eps)
    return _penalized(spec, encode_model(spec, model), delta)


def codespace_projector(layout: EdgeLayout, cap: int = DENSE_CAP_DEFAULT):
    """Dense projector onto the joint +1 eigenspace of all stabilizers.

    Multiplies (1 + S_p)/2 in the exact Pauli algebra after the cap check
    (the product has up to 2^P terms) and renders it once with ``to_dense``.
    No ``src/`` code calls it: it stays because bench/tracer.py wraps it
    and the tests use it as a dense reference.
    """
    n = layout.n_edges
    if n > cap:
        raise DenseCapError(f"{n} qubits exceeds dense cap of {cap}")
    proj = QubitOperator.identity(n)
    for stab in stabilizers(layout):
        proj = proj * (QubitOperator.identity(n, 0.5) + 0.5 * stab)
    return proj.to_dense(cap)


def default_penalty(t: float, u: float, eps: float) -> float:
    """CLI default for the penalty scale: well above every coupling."""
    return 10.0 * max(abs(t), abs(u), abs(eps), 1e-12)
