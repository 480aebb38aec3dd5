"""Independent correctness oracles for the encodings.

Two kinds of check live here.  Symbolic checks read the encodings' own
mask tables (the forests' Majorana masks, the LSFS generator and loop
masks) and test their (anti)commutation in the exact Pauli algebra,
where any violated relation is a hard failure.  Fock checks run one walk:
``codewords`` reaches Fock states from a seed by single-target moves and
gives each a qubit codeword psi_s, and ``fock_match`` checks that the psi_s
are orthonormal codewords on which an encoded operator acts as its model's
``models.fock_column``, with one ``QubitOperator.apply``.  Forests walk all
2^n states by the c_j, LSFS its even sector by the edge pairs c_j d_k.
Tolerances are 1e-9 for amplitudes and 1e-12 for penalty coefficients.  The
one runner, ``_timed``, skips a desk check, not fails it, past the dense cap.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
import time
from typing import Callable, Optional

from . import lsfs
from .encodings import EncodingSpec, encode_model
from .models import FermionOperator, LatticeSpec, fock_column, hubbard
from .pauli import _PHASES, DENSE_CAP_DEFAULT, QubitOperator, _add_terms, _commutes, _Value

SPECTRUM_TOL = 1e-9
PENALTY_TOL = 1e-12


class CheckResult(_Value):
    __slots__ = ("name", "status", "max_residual", "wall_time_s", "detail")

    def __init__(self, name: str, status: str, max_residual: float, wall_time_s: float,
                 detail: str = ""):  # status: "pass" | "fail" | "skipped"
        self.name, self.status, self.max_residual = name, status, max_residual
        self.wall_time_s, self.detail = wall_time_s, detail

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return self._fields()


def _timed(name: str, body: Callable[[], tuple[bool, float, str]], needed: int = 0,
           cap: float = math.inf) -> CheckResult:
    """Runs and times ``body``, or skips the check if it walks ``needed`` qubits past ``cap``."""
    if needed > cap:
        detail = f"needs {needed} qubits, dense cap {cap}"
        return CheckResult(name, "skipped", float("nan"), 0.0, detail)
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


def check_car(spec: EncodingSpec) -> CheckResult:
    """Exact CAR check on the spec's Majorana table.

    Models define a_j = (c_j + i d_j) / 2 on the fermion side, so CAR holds
    iff the 2n phase-free (Hermitian, squaring to I) strings c_j, d_j
    anticommute pairwise: {g_a, g_b} = 2 delta_ab gives {a_i, a^dag_j} =
    (2 + 2) delta_ij / 4 and {a_i, a_j} = (2 - 2) delta_ij / 4.  No string
    is built: the pairs are tested on the table's masks by ``pauli._commutes``.
    """

    def body():
        masks = [(x, z) for x, *zs in spec.majoranas for z in zs]
        for (a, (xa, za)), (b, (xb, zb)) in itertools.combinations(enumerate(masks), 2):
            if _commutes(xa, za, xb, zb):  # {g_a, g_b} = 2 g_a g_b
                return False, 2.0, f"pair ({a // 2}, {b // 2})"
        return True, 0.0, ""

    return _timed(f"car-{spec.kind}-n{spec.n_modes}", body)


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
    """Exact LSFS algebra check on the layout's generator and loop masks.

    The strings are phase-free, hence Hermitian with square 1, and the real
    eps_jk signs of ``lsfs.a_op`` change no relation, so what can fail is
    whether two strings commute, tested once per pair on the masks by
    ``pauli._commutes``.  Fermionic edge and vertex operators obey: A(e),
    A(e') anticommute iff e and e' share one vertex; A(e), B_k anticommute
    iff k is on e; the B_k commute and multiply to 1 (each edge qubit takes
    Z from both ends).  The B_k are Z-only masks, so they always commute and
    only their product, the XOR of the z masks, is tested.  The strings
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
        (a, b), edges = layout.generators, layout.edges()
        for (e1, (x1, z1)), (e2, (x2, z2)) in itertools.combinations(zip(edges, a), 2):
            if _commutes(x1, z1, x2, z2) != (len(set(e1) & set(e2)) != 1):
                failures.setdefault("A-A", []).append(f"A{e1} vs A{e2} rule broken")
        for (e, (x, z)), (k, zb) in itertools.product(zip(edges, a), enumerate(b)):
            if _commutes(x, z, 0, zb) != (k not in e):
                failures.setdefault("A-B", []).append(f"A{e} vs B{k} rule broken")
        if functools.reduce(operator.xor, b) != 0:
            failures["B product"] = ["product of all B != 1"]
        table = [*a, *((0, z) for z in b), *((x, z) for x, z, _ in layout.loops)]
        basis: list[int] = []  # X masks, each reduced by those before it (GF(2) elimination)
        for plq, (x, z, exp) in zip(layout.plaquettes(), layout.loops):
            if exp % 2:
                failures.setdefault("loop phase", []).append(f"loop {plq} not a +/-1 string")
            if not all(_commutes(x, z, xg, zg) for xg, zg in table):
                failures.setdefault("loop-table", []).append(f"loop {plq} fails to commute")
            x = functools.reduce(lambda x, v: min(x, x ^ v), basis, x)
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
# Fock checks: one codeword walk and one comparison.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)  # spectra_match walks the same moves under two specs
def _fock_walk(seed: Optional[FermionOperator], moves: tuple) -> tuple[int, dict]:
    """Start state and {t: (s, move index, alpha)} of each first visit of t, breadth first."""
    (start,) = (0,) if seed is None else fock_column(seed, 0)
    queue, steps = [start], {}
    for s in queue:
        for i, move in enumerate(moves):
            for t, alpha in fock_column(move, s).items():
                if alpha and t != start and t not in steps:
                    steps[t] = s, i, alpha
                    queue.append(t)
    return start, steps


def codewords(spec, seed: Optional[FermionOperator], moves, loops=()) -> dict[int, dict]:
    """Codeword psi_s of each Fock state s that the ``moves`` reach from the seed's.

    A single-target seed (None for the vacuum) picks the start state; its psi is the
    encoded seed on the qubit vacuum, projected onto each loop's +1 space in turn
    and normalized.  A single-target move P with ``fock_column(P, s)`` = {t: alpha != 0}
    sets psi_t = P psi_s / alpha on the first visit of t."""
    start, steps = _fock_walk(seed, tuple(moves))
    vector = {0: 1} if seed is None else encode_model(spec, seed).apply({0: 1})
    for loop in loops:
        vector = (0.5 * (QubitOperator.identity(spec.n_qubits) + loop)).apply(vector)
    norm = math.sqrt(sum(abs(amp) ** 2 for amp in vector.values()))
    psi = {start: {q: amp / norm for q, amp in vector.items()}}
    encoded = [encode_model(spec, move) for move in moves]
    for t, (s, i, alpha) in steps.items():
        psi[t] = {q: amp / alpha for q, amp in encoded[i].apply(psi[s]).items()}
    return psi


def fock_match(spec, psi: dict, op: QubitOperator, columns, loops=()) -> float:
    """Largest residual of ``op`` against the Fock ``columns`` carried through ``psi``.

    Each psi_s must have norm 1, be fixed by every loop and keep no norm off
    the basis states where each encoded n_j = (1 - Z^z_j) / 2 reads bit j of
    s, so the psi_s are orthonormal; one ``apply`` to every q | s << n_qubits
    must give sum_r columns[s][r] psi_r at s."""
    n, worst = spec.n_qubits, 0.0
    z_masks = [spec.monomial((2 * j, 2 * j + 1))[1] for j in range(spec.n_modes)]  # of i c_j d_j
    for s, vec in psi.items():
        stray = sum(abs(amp) ** 2 for q, amp in vec.items()
                    if any((q & z).bit_count() % 2 != s >> j & 1 for j, z in enumerate(z_masks)))
        norm = sum(abs(amp) ** 2 for amp in vec.values())
        loop_errors = [_distance(loop.apply(vec), vec) for loop in loops]
        worst = max(worst, abs(norm - 1), math.sqrt(stray), *loop_errors)
    image = op.apply({q | s << n: amp for s, vec in psi.items() for q, amp in vec.items()})
    # Exact zeros go: a hop's two halves cancel off the walked sector.  Distinct psi_r
    # have disjoint supports (checked above), so each entry has one source.
    expected = {q | s << n: amp * x for s in psi for r, amp in columns[s].items() if amp
                for q, x in psi[r].items()}
    return max(worst, _distance(image, expected))


def spectra_match(
    lattice: LatticeSpec,
    spec_a: EncodingSpec,
    spec_b: EncodingSpec,
    t: float = 1.0,
    u: float = 2.0,
    cap: int = DENSE_CAP_DEFAULT,
    name: Optional[str] = None,
    walked: Optional[dict] = None,
) -> CheckResult:
    """A model under two forests equals its Fock matrix entry by entry, on the
    codewords of all 2^n states, walked from the vacuum by the c_j.  ``walked``
    maps each spec already walked on this model to its residual and gains the new ones."""

    def body():
        n, model = lattice.n_modes, hubbard(lattice, t, u)
        residuals = {} if walked is None else walked
        columns = [fock_column(model, s) for s in range(1 << n)]  # shared by both specs
        moves = [FermionOperator.term(n, 1.0, (2 * j,)) for j in range(n)]
        for spec in (spec_a, spec_b):
            if spec not in residuals:
                psi = codewords(spec, None, moves)
                residuals[spec] = fock_match(spec, psi, encode_model(spec, model), columns)
        worst = max(residuals[spec_a], residuals[spec_b])
        return worst <= SPECTRUM_TOL, worst, ""

    return _timed(name or f"spectra-{spec_a.kind}-vs-{spec_b.kind}", body, lattice.n_modes, cap)


def lsfs_sector_match(
    w: int,
    h: int,
    t: float = 1.0,
    eps: float = 0.0,
    cap: int = DENSE_CAP_DEFAULT,
) -> CheckResult:
    """``single_spin_hamiltonian`` equals ``single_spin_model`` on the even sector, walked
    from the projected vacuum by the edge pairs c_j d_k; the walk must fill the codespace,
    whose dimension is the trace of the loops' projector."""
    layout = lsfs.EdgeLayout(w, h)

    def body():
        spec, loops, n_v = lsfs.LsfsSpec(layout), lsfs.stabilizers(layout), layout.n_vertices
        one = QubitOperator.identity(layout.n_edges)
        projector = functools.reduce(operator.mul, (0.5 * (one + s) for s in loops), one)
        code_dim = round(projector._terms.get((0, 0), 0).real * 2**layout.n_edges)
        pairs = [FermionOperator.term(n_v, 1.0, (2 * j, 2 * k + 1))
                 for u, v in layout.edges() for j, k in ((u, v), (v, u))]
        psi = codewords(spec, None, pairs, loops)
        if code_dim != len(psi):
            return False, float("inf"), f"dims {code_dim} vs {len(psi)}"
        model = lsfs.single_spin_model(layout, t, eps)
        columns = {s: fock_column(model, s) for s in psi}
        worst = fock_match(spec, psi, lsfs.single_spin_hamiltonian(layout, t, eps), columns, loops)
        return worst <= SPECTRUM_TOL, worst, f"codespace dim {code_dim}"

    return _timed(f"lsfs-sector-{w}x{h}", body, max(layout.n_edges, w * h), cap)


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
    layout = lsfs.EdgeLayout(w, h)

    def body():
        if not layout.plaquettes():
            return False, float("inf"), "no plaquettes to penalize"
        ham = lsfs.single_spin_hamiltonian(layout, t, eps)
        for plq, (x, z, exp) in zip(layout.plaquettes(), layout.loops):
            if exp % 2 or not all(_commutes(x, z, *key) for key in ham._terms):
                return False, 1.0, f"loop {plq} is not a conserved +/-1 string"
        worst = 0.0
        for value in (delta, 2.0 * delta):
            penalty = (((x, z), value / 2.0 * _PHASES[exp]) for x, z, exp in layout.loops)
            diff = lsfs.single_spin_hamiltonian(layout, t, eps, value) - ham
            _add_terms(diff._terms, penalty)  # minus the expected -value/2 sum_p S_p
            worst = max([worst, *map(abs, diff._terms.values())])
        return worst <= PENALTY_TOL, worst, f"each violated loop costs {delta:g}"

    return _timed(f"penalty-{w}x{h}-delta{delta:g}", body, layout.n_edges, cap)


# ---------------------------------------------------------------------------
# Suite runner.
# ---------------------------------------------------------------------------


class SuiteReport(_Value):
    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckResult]):
        self.checks = checks

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
        lattice, jw = LatticeSpec.rectangle(2, 2, "snake"), EncodingSpec.jordan_wigner(8)
        bk, sbk = EncodingSpec.bravyi_kitaev(8), EncodingSpec.from_segments([2, 2, 2, 2])
        walked: dict = {}  # JW's residual, walked by the first check, serves the second
        for other, name in ((bk, "spectra-2x2-jw-vs-bk"), (sbk, "spectra-2x2-jw-vs-sbk")):
            checks.append(spectra_match(lattice, jw, other, cap=cap, name=name, walked=walked))
        checks.append(lsfs_sector_match(2, 2, t=1.0, cap=cap))
        checks.append(lsfs_sector_match(2, 3, t=1.0, eps=0.5, cap=cap))
        checks.append(penalty_gap_check(2, 2, delta=10.0, cap=cap))
        checks.append(penalty_gap_check(2, 2, delta=100.0, cap=cap))
    return SuiteReport(checks)
