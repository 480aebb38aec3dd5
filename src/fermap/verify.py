"""Independent correctness oracles for the encodings.

Two kinds of check live here.  Symbolic checks read the encodings' own
tables (the forests' Majorana strings, the LSFS edge generators) and
test their (anti)commutation in the exact Pauli algebra, where any
violated relation is a hard failure.  Fock checks compare encoded
operators with their fermion models state by state, through one sparse
action per side (``models.fock_column`` on occupation states,
``QubitOperator.apply`` on qubits), at fixed tolerances: 1e-9 for
amplitudes, 1e-12 for penalty coefficients.  They are skipped, not
failed, past the dense cap, which bounds the states they enumerate.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from . import lsfs
from .encodings import EncodingSpec, encode_model
from .models import LOWER, MAJORANA_C, MAJORANA_D, RAISE, FermionOperator, LatticeSpec
from .models import fock_column, hubbard
from .pauli import DENSE_CAP_DEFAULT, PauliString, QubitOperator

SPECTRUM_TOL = 1e-9
PENALTY_TOL = 1e-12


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    max_residual: float
    wall_time_s: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return asdict(self)


def _timed(name: str, body: Callable[[], tuple[bool, float, str]]) -> CheckResult:
    start = time.perf_counter()
    ok, residual, detail = body()
    elapsed = time.perf_counter() - start
    return CheckResult(
        name=name,
        status="pass" if ok else "fail",
        max_residual=residual,
        wall_time_s=elapsed,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# Symbolic checks.
# ---------------------------------------------------------------------------


def _distance(u: dict, v: dict) -> float:
    """Largest entrywise difference of two sparse vectors or term maps."""
    return max((abs(u.get(k, 0) - v.get(k, 0)) for k in u.keys() | v.keys()), default=0.0)


def check_car(spec: EncodingSpec, name: Optional[str] = None) -> CheckResult:
    """Exact CAR check on the spec's Majorana table.

    CAR holds iff the 2n phase-free (Hermitian, squaring to I) strings
    c_j, d_j anticommute pairwise and a_j, a^dag_j = (c_j +- i d_j) / 2:
    {g_a, g_b} = 2 delta_ab gives {a_i, a^dag_j} = (2 + 2) delta_ij / 4 and
    {a_i, a_j} = (2 - 2) delta_ij / 4, and conversely c_j = a_j + a^dag_j,
    d_j = i (a^dag_j - a_j) obey it under CAR.  The ladder identities are
    read mode by mode off ``spec.factor_maps``, the term maps every
    ``encode_model`` call multiplies.
    """

    def body():
        strings = enumerate(g for pair in spec.majoranas for g in pair)
        for (a, g_a), (b, g_b) in itertools.combinations(strings, 2):
            if g_a.commutes(g_b):  # {g_a, g_b} = 2 g_a g_b
                return False, 2.0, f"pair ({a // 2}, {b // 2})"
        for j, (c, d) in enumerate(spec.majoranas):
            ladders = spec.factor_maps(((j, LOWER), (j, RAISE)))
            for terms, sign in zip(ladders, (1, -1)):
                expected = {(c.x_mask, c.z_mask): 0.5, (d.x_mask, d.z_mask): sign * 0.5j}
                if worst := _distance(terms, expected):
                    return False, worst, f"mode {j}"
        return True, 0.0, ""

    return _timed(name or f"car-{spec.kind}-n{spec.n_modes}", body)


def random_forest_spec(n_modes: int, rng: random.Random) -> EncodingSpec:
    sizes = []
    left = n_modes
    while left:
        size = rng.randint(1, left)
        sizes.append(size)
        left -= size
    return EncodingSpec.from_segments(sizes)


def check_car_random_forests(
    trials: int = 100, max_modes: int = 12, seed: int = 0
) -> CheckResult:
    """The CAR check on randomly segmented forests (seeded)."""

    def body():
        rng = random.Random(seed)
        for trial in range(trials):
            n = rng.randint(2, max_modes)
            spec = random_forest_spec(n, rng)
            result = check_car(spec)
            if not result.passed:
                sizes = [stop - start for start, stop in spec.forest.segments]
                return False, result.max_residual, f"trial {trial}, segments {sizes}"
        return True, 0.0, f"{trials} forests"

    return _timed(f"car-random-forests-x{trials}", body)


def check_lsfs_algebra(layout: lsfs.EdgeLayout) -> CheckResult:
    """Exact LSFS algebra check on the layout's generator and loop tables.

    The strings are phase-free, hence Hermitian with square 1, and the real
    eps_jk signs of ``lsfs.a_op`` change no relation, so what can fail is
    whether two strings commute, tested once per pair.  Fermionic edge and
    vertex operators obey: A(e), A(e') anticommute iff e and e' share one
    vertex; A(e), B_k anticommute iff k is on e; the B_k commute and
    multiply to 1 (each edge qubit takes Z from both ends).  The strings
    cannot obey the last relation, that A multiplied around a closed loop
    is +-1; so each loop in ``layout.loops`` must be a real-phase string
    commuting with every generator and loop (implied by the pairs, checked
    to name a bad plaquette), and the loops must fix every closed loop.
    A loop's X mask is its edge cycle, so the masks need GF(2) rank E - V + 1,
    the cycle-space dimension: each edge outside a spanning tree closes one
    independent cycle.  On the loops' joint eigenspace the relations hold.
    """
    label = f"lsfs-algebra-{layout.w}x{layout.h}"

    def body():
        failures: dict[str, list[str]] = {}  # relation -> every instance it breaks
        a_strings, b_strings = layout.generators
        edges = layout.edges()
        for (e1, s1), (e2, s2) in itertools.combinations(zip(edges, a_strings), 2):
            if s1.commutes(s2) != (len(set(e1) & set(e2)) != 1):
                failures.setdefault("A-A", []).append(f"A{e1} vs A{e2} rule broken")
        for (e, s), (k, b) in itertools.product(zip(edges, a_strings), enumerate(b_strings)):
            if s.commutes(b) != (k not in e):
                failures.setdefault("A-B", []).append(f"A{e} vs B{k} rule broken")
        for (k1, b1), (k2, b2) in itertools.combinations(enumerate(b_strings), 2):
            if not b1.commutes(b2):
                failures.setdefault("B-B", []).append(f"B{k1} vs B{k2} do not commute")
        if functools.reduce(operator.mul, b_strings) != PauliString.identity(layout.n_edges):
            failures["B product"] = ["product of all B != 1"]
        basis: list[int] = []  # X masks, each reduced by those before it (GF(2) elimination)
        for plq, loop in zip(layout.plaquettes(), layout.loops):
            if loop.phase_exp % 2:
                failures.setdefault("loop phase", []).append(f"loop {plq} not a +/-1 string")
            if not all(loop.commutes(g) for g in a_strings + b_strings + layout.loops):
                failures.setdefault("loop-table", []).append(f"loop {plq} fails to commute")
            x = functools.reduce(lambda x, b: min(x, x ^ b), basis, loop.x_mask)
            if x:
                basis.append(x)
        cycle_rank = layout.n_edges - layout.n_vertices + 1
        if len(basis) != cycle_rank:
            failures["loop rank"] = [f"loop rank {len(basis)}, cycle space {cycle_rank}"]
        # The first instance of each broken relation, so a broken loop is named too.
        firsts = [instances[0] for instances in failures.values()]
        more = sum(map(len, failures.values())) - len(firsts)
        detail = "; ".join(firsts) + (f"; +{more} more" if more else "")
        return not failures, 0.0 if not failures else 1.0, detail

    return _timed(label, body)


# ---------------------------------------------------------------------------
# Fock checks.
# ---------------------------------------------------------------------------


def _skipped(name: str, needed: int, cap: int) -> CheckResult:
    return CheckResult(
        name=name,
        status="skipped",
        max_residual=float("nan"),
        wall_time_s=0.0,
        detail=f"needs {needed} qubits, dense cap {cap}",
    )


def spectra_match(
    lattice: LatticeSpec,
    spec_a: EncodingSpec,
    spec_b: EncodingSpec,
    t: float = 1.0,
    u: float = 2.0,
    cap: int = DENSE_CAP_DEFAULT,
    name: Optional[str] = None,
) -> CheckResult:
    """A model under two encodings equals its Fock matrix entry by entry.

    Fock state s (n_j = bit j of s) maps to the qubit basis state
    ``code[s]``, whose bit j is bit j of ``spec.forest.encode(n)``, so the
    encoded operator applied to ``code[s]`` must be Fock column s with
    every row r read at ``code[r]``.
    """
    label = name or f"spectra-{spec_a.kind}-vs-{spec_b.kind}"
    if lattice.n_modes > cap:
        return _skipped(label, lattice.n_modes, cap)

    def body():
        model = hubbard(lattice, t, u)
        n = lattice.n_modes
        columns = [fock_column(model, s) for s in range(1 << n)]
        worst = 0.0
        for spec in (spec_a, spec_b):
            occupancies = ([s >> j & 1 for j in range(n)] for s in range(1 << n))
            codes = map(spec.forest.encode, occupancies)
            code = [sum(bit << j for j, bit in enumerate(x)) for x in codes]
            encoded = encode_model(spec, model)
            for s, column in enumerate(columns):
                fock = {code[r]: amp for r, amp in column.items()}
                worst = max(worst, _distance(encoded.apply({code[s]: 1}), fock))
        return worst <= SPECTRUM_TOL, worst, ""

    return _timed(label, body)


def lsfs_sector_match(
    w: int,
    h: int,
    t: float = 1.0,
    eps: float = 0.0,
    cap: int = DENSE_CAP_DEFAULT,
) -> CheckResult:
    """Loop-stabilized codespace equals the even-parity sector, state by state.

    psi_0 is the vacuum (every B_k = +1) projected onto the loops' +1 space.
    A directed edge pair c_j d_k sends Fock state s to alpha |s'>, and the
    first visit of s' in a breadth-first search sets psi_s' = P psi_s / alpha,
    P the encoded pair.  The psi_s must fill the codespace (dimension: the
    projector's trace), be orthonormal and loop-fixed, and carry the encoded
    Hamiltonian as the Fock matrix of ``lsfs.single_spin_model`` does.
    """
    label = f"lsfs-sector-{w}x{h}"
    layout = lsfs.EdgeLayout(w, h)
    if max(layout.n_edges, w * h) > cap:
        return _skipped(label, max(layout.n_edges, w * h), cap)

    def body():
        n_e, loops = layout.n_edges, lsfs.stabilizers(layout)
        one = QubitOperator.identity(n_e)
        projector = functools.reduce(operator.mul, (0.5 * (one + s) for s in loops), one)
        code_dim = round(projector.terms.get(PauliString.identity(n_e), 0).real * 2**n_e)
        vacuum = projector.apply({0: 1})
        norm = math.sqrt(sum(abs(amp) ** 2 for amp in vacuum.values()))
        psi, queue = {0: {q: amp / norm for q, amp in vacuum.items()}}, [0]
        pairs = [FermionOperator.term(layout.n_vertices, 1.0, ((j, MAJORANA_C), (k, MAJORANA_D)))
                 for u, v in layout.edges() for j, k in ((u, v), (v, u))]
        encoded = [encode_model(lsfs.LsfsSpec(layout), pair) for pair in pairs]
        for s in queue:
            for pair, qubit_pair in zip(pairs, encoded):
                ((target, alpha),) = fock_column(pair, s).items()
                if target not in psi:
                    psi[target] = {q: amp / alpha for q, amp in qubit_pair.apply(psi[s]).items()}
                    queue.append(target)
        if code_dim != len(psi):
            return False, float("inf"), f"dims {code_dim} vs {len(psi)}"

        ham = lsfs.single_spin_hamiltonian(layout, t, eps)
        model, worst = lsfs.single_spin_model(layout, t, eps), 0.0
        for s, vec in psi.items():
            for r, other in psi.items():
                dot = sum(amp.conjugate() * other.get(q, 0) for q, amp in vec.items())
                worst = max(worst, abs(dot - (r == s)))
            worst = max([worst] + [_distance(loop.apply(vec), vec) for loop in loops])
            image: dict[int, complex] = {}
            for r, amp in fock_column(model, s).items():
                for q, x in psi[r].items():
                    image[q] = image.get(q, 0j) + amp * x
            worst = max(worst, _distance(ham.apply(vec), image))
        return worst <= SPECTRUM_TOL, worst, f"codespace dim {code_dim}"

    return _timed(label, body)


def penalty_gap_check(
    w: int,
    h: int,
    t: float = 1.0,
    eps: float = 0.0,
    delta: float = 100.0,
    cap: int = DENSE_CAP_DEFAULT,
) -> CheckResult:
    """Penalty arithmetic: one violated stabilizer costs exactly delta.

    Every loop S_p must be a +-1 string commuting with every term, and the
    Hamiltonian ``single_spin_hamiltonian`` ships with the penalty minus
    the one without must be -delta/2 sum_p S_p key by key, at delta and at
    2 delta; so flipping one conserved S_p to -1 costs exactly delta.
    """
    label = f"penalty-{w}x{h}-delta{delta:g}"
    layout = lsfs.EdgeLayout(w, h)
    if layout.n_edges > cap:
        return _skipped(label, layout.n_edges, cap)

    def body():
        if not layout.plaquettes():
            return False, float("inf"), "no plaquettes to penalize"
        ham = lsfs.single_spin_hamiltonian(layout, t, eps)
        for plq, loop in zip(layout.plaquettes(), layout.loops):
            if loop.phase_exp % 2 or not all(loop.commutes(term) for term in ham.terms):
                return False, 1.0, f"loop {plq} is not a conserved +/-1 string"
        worst = 0.0
        for value in (delta, 2.0 * delta):
            terms = (QubitOperator.from_paulistring(loop, -value / 2.0) for loop in layout.loops)
            penalty = functools.reduce(operator.add, terms)
            diff = lsfs.single_spin_hamiltonian(layout, t, eps, value) - ham - penalty
            worst = max([worst, *map(abs, diff.terms.values())])
        return worst <= PENALTY_TOL, worst, f"each violated loop costs {delta:g}"

    return _timed(label, body)


# ---------------------------------------------------------------------------
# Suite runner.
# ---------------------------------------------------------------------------


@dataclass
class SuiteReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def status(self) -> str:
        if any(c.status == "fail" for c in self.checks):
            return "fail"
        if any(c.status == "skipped" for c in self.checks):
            return "partial"
        return "pass"

    def to_json(self) -> str:
        payload = {
            "status": self.status,
            "checks": [c.to_dict() for c in self.checks],
        }
        return json.dumps(payload, indent=2, allow_nan=True)


def run_suite(
    symbolic_only: bool = False,
    cap: int = DENSE_CAP_DEFAULT,
    seed: int = 0,
    forest_trials: int = 100,
) -> SuiteReport:
    """The standard desk-scale verification suite."""
    checks = [
        check_car(EncodingSpec.jordan_wigner(7)),
        check_car(EncodingSpec.bravyi_kitaev(7)),
        check_car_random_forests(trials=forest_trials, seed=seed),
        check_lsfs_algebra(lsfs.EdgeLayout(3, 3)),
        check_lsfs_algebra(lsfs.EdgeLayout(4, 4)),
    ]
    if not symbolic_only:
        lattice = LatticeSpec.rectangle(2, 2, "snake")
        checks.append(
            spectra_match(
                lattice,
                EncodingSpec.jordan_wigner(8),
                EncodingSpec.bravyi_kitaev(8),
                cap=cap,
                name="spectra-2x2-jw-vs-bk",
            )
        )
        checks.append(
            spectra_match(
                lattice,
                EncodingSpec.jordan_wigner(8),
                EncodingSpec.from_segments([2, 2, 2, 2]),
                cap=cap,
                name="spectra-2x2-jw-vs-sbk",
            )
        )
        checks.append(lsfs_sector_match(2, 2, t=1.0, cap=cap))
        checks.append(lsfs_sector_match(2, 3, t=1.0, eps=0.5, cap=cap))
        checks.append(penalty_gap_check(2, 2, delta=10.0, cap=cap))
        checks.append(penalty_gap_check(2, 2, delta=100.0, cap=cap))
    return SuiteReport(checks)
