"""Auxiliary-fermion resource planning: paths, non-local degrees, qubit counts.

The planner lays a Hamiltonian path (a boustrophedon snake) through each
spin sublattice, counts every vertex's non-local degree (lattice degree
minus path degree) and allocates one auxiliary mode per two non-local
couplings.  Only resources and per-term-class localities are reported;
the auxiliary operators themselves are not synthesized here.
"""

from __future__ import annotations

from typing import Sequence

from .models import LatticeSpec
from .pauli import _Value


def _raster(sides: Sequence[int]) -> list[int]:
    """Reflected raster over mixed-radix ``sides``, axis 0 fastest as in ``LatticeSpec``:
    each step along an axis repeats the path over the axes before it, reversed on odd steps."""
    path, stride = [0], 1
    for side in sides:
        path = [v + i * stride for i in range(side) for v in (path[::-1] if i % 2 else path)]
        stride *= side
    return path


def snake_path(w: int, h: int) -> tuple[int, ...]:
    """Boustrophedon visit order of the w x h grid, row-major vertex ids.

    Rows are walked from the last row towards row 0, the first of them
    left to right.  Starting opposite the id origin makes both row-0
    corners path turns, which is the auxiliary placement the reference
    census tabulates.
    """
    if w < 1 or h < 1:
        raise ValueError("grid dimensions must be at least 1")
    return tuple((h - 1 - v // w) * w + v % w for v in _raster((w, h)))  # rows mirrored


def snake_path_hypercubic(dim: int, w: int) -> tuple[int, ...]:
    """Reflected-raster Hamiltonian path through the w^dim hypercube."""
    if dim < 1 or w < 1:
        raise ValueError("need dim >= 1 and w >= 1")
    return tuple(_raster((w,) * dim))


class AuxPlan(_Value):
    """Resource plan for one two-spin lattice model: ``dims`` is the lattice's
    ``sides``, ``path`` its site order, and the other tuples run over sites."""

    __slots__ = ("dims", "path", "degree", "path_degree", "nonlocal_degree", "aux_per_site",
                 "formula_qubits")

    def __init__(self, dims: tuple, path: tuple, degree: tuple, path_degree: tuple,
                 nonlocal_degree: tuple, aux_per_site: tuple, formula_qubits: int):
        self.dims, self.path, self.degree, self.path_degree = dims, path, degree, path_degree
        self.nonlocal_degree, self.aux_per_site = nonlocal_degree, aux_per_site
        self.formula_qubits = formula_qubits

    @property
    def n_sites(self) -> int:
        return len(self.path)

    @property
    def per_spin_qubits(self) -> int:
        return self.n_sites + sum(self.aux_per_site)

    @property
    def total_qubits(self) -> int:
        """Both spin copies: 2 * (sites + auxiliaries per sublattice)."""
        return 2 * self.per_spin_qubits


def _plan_from_path(lattice: LatticeSpec, path: Sequence[int], formula: int) -> AuxPlan:
    n = lattice.n_sites
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b, _ in lattice.edges():
        adj[a].add(b)
        adj[b].add(a)
    path_deg = [0] * n
    for a, b in zip(path, path[1:]):
        if b not in adj[a]:
            raise AssertionError("path step is not a lattice edge")
        path_deg[a] += 1
        path_deg[b] += 1
    degree = tuple(len(adj[v]) for v in range(n))
    d_nl = tuple(degree[v] - path_deg[v] for v in range(n))
    if any(d < 0 for d in d_nl):
        raise AssertionError("path is not a subgraph of the lattice")
    aux = tuple((d + 1) // 2 for d in d_nl)
    return AuxPlan(
        dims=lattice.sides,
        path=tuple(path),
        degree=degree,
        path_degree=tuple(path_deg),
        nonlocal_degree=d_nl,
        aux_per_site=aux,
        formula_qubits=formula,
    )


def plan(w: int, h: int) -> AuxPlan:
    """Two-spin rectangular plan; total qubit count is 4wh - 4."""
    if w < 2 or h < 2:
        raise ValueError("rectangular planning needs w, h >= 2")
    lattice = LatticeSpec.rectangle(w, h)
    return _plan_from_path(lattice, snake_path(w, h), 4 * w * h - 4)


def plan_hypercubic(dim: int, w: int) -> AuxPlan:
    """Hypercubic plan; the headline table counts 2 * dim * w**dim qubits.

    The exact census (``total_qubits``) is smaller at finite ``w``
    because boundary sites fall short of the bulk non-local degree
    2 * dim - 2; ``formula_qubits`` carries the tabulated scaling value.
    """
    if dim < 1 or w < 2:
        raise ValueError("hypercubic planning needs dim >= 1 and w >= 2")
    lattice = LatticeSpec.hypercube(dim, w)
    path = snake_path_hypercubic(dim, w)
    return _plan_from_path(lattice, path, 2 * dim * w**dim)


def locality_profile(plan_: AuxPlan) -> dict[str, int]:
    """Worst-case qubit locality per Hamiltonian term class.

    Consecutive-path hops act on two qubits; a non-local hop also
    touches one auxiliary at each endpoint.  Density-density terms pair
    two number operators and stay 2-local.  For hypercubes the headline
    table value 2*dim is reported along with the bulk-path estimate
    2*dim - 2, which the source analyses quote inconsistently.
    """
    dims = plan_.dims
    if len(dims) == 2:
        return {"density-density": 2, "horizontal": 2, "vertical": 4}
    dim = len(dims)
    if dim == 1:
        return {"density-density": 2, "hop": 2}
    return {
        "density-density": 2,
        "hop": 2 * dim,
        "hop-text-variant": 2 * dim - 2,
    }
