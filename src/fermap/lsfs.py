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
from it one table: the phase-free A strings per edge qubit and B crosses
per vertex (``generators``), and one loop per plaquette (``loops``).
Every generator, the stabilizers, the plaquette report and the algebra
oracle in fermap.verify read it.  A directional edge that would leave
the lattice contributes an identity factor.

Fermion terms are encoded by ``encodings.encode_model`` under an
``LsfsSpec``, whose factor maps are a pair table: the Majorana pair
c_j d_k on an edge is eps_jk A(jk) B_k, with the phase of that string
product, and n_k is (1 - B_k) / 2.  A hop (i/2)(c_j d_k + c_k d_j) then
expands, on a horizontal edge, to (1/2) Y_k^right (Z_k^down Z_{k+1}^up -
Z_k^up Z_k^left Z_{k+1}^right Z_{k+1}^down); the lattice is bipartite,
so the codespace spectrum is insensitive to the global sign of eps (the
Fock oracle in fermap.verify pins the equivalence).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .encodings import encode_model
from .models import MAJORANA_C, MAJORANA_D, NUMBER, FermionOperator, LatticeSpec, hopping_pair
from .pauli import DENSE_CAP_DEFAULT, DenseCapError, PauliString, QubitOperator


@dataclass(frozen=True)
class EdgeLayout:
    """Edge-qubit layout of a single-spin w x h rectangular lattice."""

    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1 or self.w * self.h < 2:
            raise ValueError("layout needs at least two vertices")

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
    def generators(self) -> tuple[tuple[PauliString, ...], tuple[PauliString, ...]]:
        """Phase-free A strings per edge qubit and B crosses per vertex.

        A(u, v) has X on its edge and Z on every edge (l, u) with l < v and
        (s, v) with s < u; B_k has Z on every edge incident to k.
        """
        n, table, a = self.n_edges, self.incidence, []
        for qubit, (u, v) in enumerate(self.edges()):
            z = sum(1 << e for l, e in table[u].items() if l < v)
            z |= sum(1 << e for s, e in table[v].items() if s < u)
            a.append(PauliString(n, 1 << qubit, z))
        b = (PauliString(n, 0, sum(1 << e for e in row.values())) for row in table)
        return tuple(a), tuple(b)

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
    def loops(self) -> tuple[PauliString, ...]:
        """A(ab) A(bc) A(cd) A(da) per plaquette, phase kept and unchecked, so the
        oracle can name a bad loop; the eps_jk cancel (two steps ascend, two descend)."""
        a_strings, table, loops = self.generators[0], self.incidence, []
        for plq in self.plaquettes():
            cycle = zip(plq, plq[1:] + plq[:1])
            loops.append(functools.reduce(operator.mul, (a_strings[table[j][k]] for j, k in cycle)))
        return tuple(loops)


def _epsilon(j: int, k: int) -> int:
    return 1 if j > k else -1


def b_op(layout: EdgeLayout, k: int) -> QubitOperator:
    """Vertex generator: the cross of Z on all edges incident to k."""
    if not 0 <= k < layout.n_vertices:  # a negative k would index from the end
        raise IndexError(f"vertex {k} outside {layout.w}x{layout.h} lattice")
    return QubitOperator.from_paulistring(layout.generators[1][k])


def a_op(layout: EdgeLayout, j: int, k: int) -> QubitOperator:
    """Edge generator eps_jk A(j, k): antisymmetric, squares to identity."""
    string = layout.generators[0][layout.edge_index(j, k)]
    return QubitOperator.from_paulistring(string, float(_epsilon(j, k)))


def stabilizers(layout: EdgeLayout) -> list[QubitOperator]:
    """The layout's plaquette loops as operators; each must be a +-1 string."""
    if any(loop.phase_exp % 2 for loop in layout.loops):
        raise AssertionError("plaquette loop produced a non-Hermitian phase")
    return [QubitOperator.from_paulistring(loop) for loop in layout.loops]


@dataclass(frozen=True)
class LsfsSpec:
    """The layout's pair table for ``encode_model`` over ``n_spins`` blocks:
    mode v + s V is vertex v of block s, on edge qubits [s E, (s + 1) E)."""

    layout: EdgeLayout
    n_spins: int = 1

    @property
    def n_modes(self) -> int:
        return self.n_spins * self.layout.n_vertices

    @property
    def n_qubits(self) -> int:
        return self.n_spins * self.layout.n_edges

    def factor_maps(self, factors) -> list[dict]:
        """n_k is (1 - B_k) / 2 and c_j d_k on an edge is eps_jk A(jk) B_k."""
        layout, maps, rest = self.layout, [], list(factors)
        (a_strings, b_strings), n_v = layout.generators, layout.n_vertices
        while rest:
            mode, flavor = rest.pop(0)
            block, j = divmod(mode, n_v)
            shift = block * layout.n_edges
            if flavor == NUMBER:
                maps.append({(0, 0): 0.5 + 0j, (0, b_strings[j].z_mask << shift): -0.5 + 0j})
                continue
            k_mode, partner = rest.pop(0) if rest else (None, None)
            k = k_mode - block * n_v if (flavor, partner) == (MAJORANA_C, MAJORANA_D) else None
            qubit = layout.incidence[j].get(k)  # also None for a k in another block
            if qubit is None:
                raise ValueError(f"LSFS encodes n_k and c_j d_k on an edge, not {factors}")
            pair = a_strings[qubit] * b_strings[k]
            key = (pair.x_mask << shift, pair.z_mask << shift)
            maps.append({key: _epsilon(j, k) * pair.phase})
        return maps


def number_term(layout: EdgeLayout, k: int) -> QubitOperator:
    """Occupation of vertex k: (1 - B_k) / 2."""
    model = FermionOperator.term(layout.n_vertices, 1.0, ((k, NUMBER),))
    return encode_model(LsfsSpec(layout), model)


def hopping_term(layout: EdgeLayout, j: int, k: int) -> QubitOperator:
    """Encoded a^dag_k a_j + a^dag_j a_k for lattice edge (j, k); symmetric in j, k."""
    return encode_model(LsfsSpec(layout), hopping_pair(layout.n_vertices, j, k))


def single_spin_model(layout: EdgeLayout, t: float, eps: float = 0.0) -> FermionOperator:
    """-t sum_edges hop + eps sum_k n_k on the vertices, hops in edge-qubit order."""
    n, terms = layout.n_vertices, []
    if t != 0.0:
        for u, v in layout.edges():
            terms += hopping_pair(n, u, v, -t).terms
    if eps != 0.0:
        terms += [(complex(eps), ((k, NUMBER),)) for k in range(n)]
    return FermionOperator(n, tuple(terms))


def single_spin_hamiltonian(
    layout: EdgeLayout, t: float, eps: float = 0.0, delta: float = 0.0
) -> QubitOperator:
    """The encoded ``single_spin_model``, with optional stabilizer penalty."""
    total = encode_model(LsfsSpec(layout), single_spin_model(layout, t, eps))
    if delta != 0.0:
        for stab in stabilizers(layout):
            total._add_in_place((-delta / 2.0) * stab)
    return total


def hubbard_lsfs(
    w: int,
    h: int,
    t: float,
    u: float,
    eps: float = 0.0,
    delta: float = 0.0,
) -> QubitOperator:
    """Two-spin-lattice Hubbard Hamiltonian on 4wh - 2w - 2h edge qubits.

    The spin-down edge lattice occupies qubits [0, E) and spin-up
    occupies [E, 2E).  The on-site repulsion couples matching vertices
    of the two lattices through n_k n_k' = (1 - B)(1 - B')/4, and the
    penalty sums -delta/2 times every stabilizer of both lattices.
    """
    if w < 2 or h < 2:
        raise ValueError("the two-spin mapping needs w, h >= 2")
    layout = EdgeLayout(w, h)
    spec, n_v = LsfsSpec(layout, 2), layout.n_vertices
    total = QubitOperator.zero(spec.n_qubits)
    spin_part = single_spin_hamiltonian(layout, t, eps, delta)
    for offset in (0, layout.n_edges):
        total._add_in_place(spin_part.embedded(spec.n_qubits, offset))
    if u != 0.0:
        for k in range(n_v):  # one term at a time: the identity is a running sum
            model = FermionOperator.term(spec.n_modes, u, ((k, NUMBER), (k + n_v, NUMBER)))
            total._add_in_place(encode_model(spec, model))
    return total


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
