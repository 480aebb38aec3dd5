"""The verification suite: symbolic sweeps and sparse Fock oracles."""

import functools
import json
import math
import operator
import random
from collections import Counter

import pytest
from ladders import LOWER, RAISE, ladder_term

from fermap import lsfs, verify
from fermap.encodings import EncodingSpec, encode_model, model_encoding
from fermap.lsfs import EdgeLayout, LsfsSpec, hubbard_lsfs, stabilizers
from fermap.models import FermionOperator, LatticeSpec, fock_column, hubbard
from fermap.pauli import PauliString, QubitOperator
from fermap.verify import (
    check_car,
    check_car_random_forests,
    check_lsfs_algebra,
    codewords,
    fock_match,
    lsfs_sector_match,
    penalty_gap_check,
    random_forest_spec,
    run_suite,
    spectra_match,
)


class TestCar:
    @pytest.mark.parametrize(
        "spec",
        [
            EncodingSpec.jordan_wigner(7),
            EncodingSpec.bravyi_kitaev(7),
            EncodingSpec.from_segments([4, 3]),
            EncodingSpec.jordan_wigner(200),
            EncodingSpec.bravyi_kitaev(200),
            EncodingSpec.from_segments([37, 50, 13, 100]),
        ],
        ids=["jw", "bk", "forest", "jw-200", "bk-200", "forest-200"],
    )
    def test_passes(self, spec):
        result = check_car(spec)
        assert result.passed
        assert result.max_residual == 0.0

    def test_random_forests(self):
        result = check_car_random_forests(trials=20, max_modes=10, seed=3)
        assert result.passed

    def test_random_forest_spec_reproducible(self):
        import random

        a = random_forest_spec(10, random.Random(5))
        b = random_forest_spec(10, random.Random(5))
        assert a.forest.segments == b.forest.segments

    def test_names_offending_pair_on_failure(self):
        # A hand-built forest that drops the parity link between the two
        # sites: the ladder operators then commute instead of
        # anticommuting and the sweep must name the offending pair.
        from fermap.fenwick import FenwickForest

        broken = FenwickForest(
            n_sites=2,
            parent=(None, None),
            segments=((0, 2),),
            roots=(1,),
            children_mask=(0, 0),
            ancestor_mask=(0, 0),
            parity_mask=(0, 0),
        )
        result = check_car(EncodingSpec(broken))
        assert not result.passed
        assert "pair" in result.detail
        assert result.max_residual > 0

    @pytest.mark.parametrize(
        "mutation", ["d-keeps-z-on-children", "c-without-parity", "x-without-ancestors",
                     "d-without-own-z"],
    )
    def test_broken_majorana_table_names_a_pair(self, mutation, monkeypatch):
        def mutated(spec):
            forest = spec.forest
            masks = zip(forest.ancestor_mask, forest.parity_mask, forest.children_mask)
            table = []
            for j, (ancestors, parity, children) in enumerate(masks):
                x, c_z, d_z = ancestors | 1 << j, parity, parity & ~children | 1 << j
                if mutation == "d-keeps-z-on-children":
                    d_z = parity | 1 << j
                elif mutation == "c-without-parity":
                    c_z = 0
                elif mutation == "x-without-ancestors":
                    x = 1 << j
                else:
                    d_z = parity & ~children
                table.append((x, c_z, d_z))
            return tuple(table)

        monkeypatch.setattr(EncodingSpec, "majoranas", property(mutated))
        for spec in (EncodingSpec.bravyi_kitaev(8), EncodingSpec.from_segments([5, 3])):
            result = check_car(spec)
            assert not result.passed
            assert result.detail.startswith("pair (")
            assert result.max_residual == 2.0


class TestLsfsAlgebra:
    @pytest.mark.parametrize("w,h", [(2, 2), (3, 3), (4, 4), (2, 5)])
    def test_passes(self, w, h):
        result = check_lsfs_algebra(EdgeLayout(w, h))
        assert result.passed, result.detail

    def test_single_edge_trivial(self):
        result = check_lsfs_algebra(EdgeLayout(2, 1))
        assert result.passed

    def test_counts_stabilizers(self):
        assert check_lsfs_algebra(EdgeLayout(4, 4)).passed

    @pytest.mark.parametrize(
        "mutation,w,first",
        [
            ("interior-a-drops-a-z", 3, "A(4, 5) vs A(2, 5) rule broken; loop (1, 2, 5, 4) not"),
            ("interior-a-drops-a-z", 4, "A(5, 6) vs A(2, 6) rule broken; loop (1, 2, 6, 5) not"),
            ("b0-drops-a-qubit", 3, "A(0, 1) vs B0 rule broken; product of all B != 1; loop"),
            ("b0-drops-a-qubit", 4, "A(0, 1) vs B0 rule broken; product of all B != 1; loop"),
            ("swap-a-of-edges-0-1", 3, "A(0, 1) vs A(0, 3) rule broken; A(0, 1) vs B0 rule"),
            ("swap-a-of-edges-0-1", 4, "A(0, 1) vs A(2, 3) rule broken; A(0, 1) vs B0 rule"),
        ],
    )
    def test_broken_generator_table_names_a_relation(self, mutation, w, first, monkeypatch):
        original = EdgeLayout.__dict__["generators"].func

        def mutated(layout):
            a_masks, b_masks = map(list, original(layout))
            if mutation == "interior-a-drops-a-z":
                q = layout.edge_index(w + 1, w + 2)
                x, z = a_masks[q]
                a_masks[q] = (x, z & ~(1 << z.bit_length() - 1))
            elif mutation == "b0-drops-a-qubit":
                z = b_masks[0]
                b_masks[0] = z & (z - 1)
            else:
                a_masks[0], a_masks[1] = a_masks[1], a_masks[0]
            return tuple(a_masks), tuple(b_masks)

        monkeypatch.setattr(EdgeLayout, "generators", property(mutated))
        result = check_lsfs_algebra(EdgeLayout(w, w))
        assert result.status == "fail"
        assert result.max_residual == 1.0
        assert result.detail.startswith(first), result.detail

    @pytest.mark.parametrize("w,h", [(3, 3), (4, 4)])
    def test_loop_with_an_imaginary_phase_fails_and_names_it(self, w, h, monkeypatch):
        # Swapping two A strings makes the corner loop anti-Hermitian; the
        # synthesis path refuses it, and the check reports it as a failure.
        original = EdgeLayout.__dict__["generators"].func

        def swapped(layout):
            a_strings, b_strings = original(layout)
            return (a_strings[1], a_strings[0], *a_strings[2:]), b_strings

        monkeypatch.setattr(EdgeLayout, "generators", property(swapped))
        layout = EdgeLayout(w, h)
        corner = layout.plaquettes()[0]
        with pytest.raises(AssertionError, match="non-Hermitian"):
            stabilizers(layout)
        result = check_lsfs_algebra(layout)
        assert result.status == "fail"
        assert f"loop {corner} not a +/-1 string" in result.detail

    def test_dependent_loops_fail_the_rank_clause(self, monkeypatch):
        # One loop repeated: every phase and commutation rule holds, but the
        # loops fix one cycle of four, so the codespace would be too large.
        original = EdgeLayout.__dict__["loops"].func
        repeated = property(lambda layout: original(layout)[:1] * len(layout.plaquettes()))
        monkeypatch.setattr(EdgeLayout, "loops", repeated)
        result = check_lsfs_algebra(EdgeLayout(3, 3))
        assert result.status == "fail"
        assert result.detail == "loop rank 1, cycle space 4", result.detail


class TestNoStrings:
    """The LSFS tables and their readers work on raw masks and build no ``PauliString``."""

    @pytest.fixture
    def built(self, monkeypatch):
        strings, init = [], PauliString.__init__

        def counting(string, *args, **kwargs):
            init(string, *args, **kwargs)
            strings.append(string)

        monkeypatch.setattr(PauliString, "__init__", counting)
        return strings

    @pytest.mark.parametrize(
        "job",
        [
            lambda: EdgeLayout(4, 3).generators,
            lambda: EdgeLayout(4, 3).loops,
            lambda: LsfsSpec(EdgeLayout(4, 3), 2).pairs,
            lambda: check_lsfs_algebra(EdgeLayout(4, 4)).passed,
            lambda: penalty_gap_check(2, 2, delta=10.0).passed,
        ],
        ids=["generators", "loops", "pairs", "check_lsfs_algebra", "penalty_gap_check"],
    )
    def test_builds_none(self, job, built):
        assert job()
        assert len(built) == 0

    def test_counter_sees_the_operator_boundary(self, built):
        # stabilizers wraps each of the 3x3 layout's four loops once.
        assert len(stabilizers(EdgeLayout(3, 3))) == 4
        assert len(built) == 4


class TestSpectraMatch:
    def test_jw_vs_bk_2x2(self):
        result = spectra_match(
            LatticeSpec.rectangle(2, 2, "snake"),
            EncodingSpec.jordan_wigner(8),
            EncodingSpec.bravyi_kitaev(8),
        )
        assert result.passed
        assert result.max_residual < 1e-9

    def test_jw_vs_sbk_2x2(self):
        result = spectra_match(
            LatticeSpec.rectangle(2, 2, "snake"),
            EncodingSpec.jordan_wigner(8),
            EncodingSpec.from_segments([2, 2, 2, 2]),
        )
        assert result.passed

    def test_zero_couplings(self):
        result = spectra_match(
            LatticeSpec.rectangle(2, 1, "snake"),
            EncodingSpec.jordan_wigner(4),
            EncodingSpec.bravyi_kitaev(4),
            t=0.0,
            u=0.0,
        )
        assert result.passed
        assert result.max_residual == 0.0

    def test_cap_skips(self):
        result = spectra_match(
            LatticeSpec.rectangle(4, 4, "snake"),
            EncodingSpec.jordan_wigner(32),
            EncodingSpec.bravyi_kitaev(32),
            cap=12,
        )
        assert result.status == "skipped"
        assert "32" in result.detail

    def test_corrupted_majorana_mask_fails(self):
        # d_5 of BK gains a Z on qubit 0, so n_5 = (1 - Z^(z_c ^ z_d)) / 2 reads
        # qubit 0 too: codewords leave their sector (residual 1), and the U = 2
        # density term on mode 5 misses by 2.
        spec = EncodingSpec.bravyi_kitaev(8)
        table = list(spec.majoranas)
        x, z_c, z_d = table[5]
        table[5] = (x, z_c, z_d ^ 1)
        spec.__dict__["majoranas"] = tuple(table)  # the cached_property's slot
        lattice = LatticeSpec.rectangle(2, 2, "snake")
        result = spectra_match(lattice, EncodingSpec.jordan_wigner(8), spec)
        assert (result.status, result.max_residual) == ("fail", 2.0)


def patch_pairs(monkeypatch, change):
    """Replace each ``LsfsSpec.pairs`` entry (x, z, coeff) of edge ``key`` by
    ``change(key, x, z, coeff)``."""
    build = LsfsSpec.__dict__["pairs"].func
    table = property(lambda spec: {key: change(key, *entry) for key, entry in build(spec).items()})
    monkeypatch.setattr(LsfsSpec, "pairs", table)


def patch_monomial(monkeypatch, cls, sign):
    """Multiply every string that ``cls.monomial`` returns by ``sign(indices)``."""
    original = cls.monomial

    def signed(spec, indices):
        x, z, coeff = original(spec, indices)
        return x, z, sign(indices) * coeff

    monkeypatch.setattr(cls, "monomial", signed)


def vertex_pairs(indices):
    """How many of the monomial's pairs are c_k d_k, the i c_k d_k of an n_k."""
    return sum(d == c + 1 and c % 2 == 0 for c, d in zip(indices[::2], indices[1::2]))


class TestSectorMatch:
    def test_2x2_hopping(self):
        result = lsfs_sector_match(2, 2, t=1.0)
        assert result.passed
        assert "codespace dim 8" in result.detail

    def test_2x2_onsite_only(self):
        assert lsfs_sector_match(2, 2, t=0.0, eps=1.0).passed

    def test_2x3(self):
        assert lsfs_sector_match(2, 3, t=1.3, eps=0.4).passed

    def test_3x3_at_the_cap(self):
        # 12 edge qubits, the default dense cap; 256 even-sector states.
        result = lsfs_sector_match(3, 3, t=0.7, eps=0.3)
        assert (result.status, result.detail) == ("pass", "codespace dim 256")
        assert result.max_residual <= 1e-12

    def test_cap_skip(self):
        assert lsfs_sector_match(4, 4, cap=12).status == "skipped"

    @pytest.mark.parametrize(
        "mutation, eps, residual",
        [("identity-pairs", 0.0, 1.0), ("pairs-leave-the-codespace", 1.0, 2**0.5)],
    )
    def test_pair_maps_unseen_by_the_hamiltonian(self, mutation, eps, residual, monkeypatch):
        # At t = 0 no term reads the edge pair table, only the walk does.
        # Identity pairs make every psi_s the vacuum (not orthonormal); a Z on
        # edge qubit 0 with each pair keeps the occupations but anticommutes
        # with the loop.
        def broken(key, x, z, c):
            return (0, 0, c) if mutation == "identity-pairs" else (x, z ^ 1, c)

        patch_pairs(monkeypatch, broken)
        result = lsfs_sector_match(2, 2, t=0.0, eps=eps)
        assert result.status == "fail"
        assert result.max_residual == pytest.approx(residual)

    def test_scaled_pairs_fail_the_norm(self, monkeypatch):
        # 2 c_j d_k keeps each codeword in its sector and loop-fixed, and at t = 0
        # no term reads the pairs; the 4-particle codeword is two moves out, so
        # its norm is 4 and the residual 4^2 - 1.
        patch_pairs(monkeypatch, lambda key, x, z, c: (x, z, 2 * c))
        result = lsfs_sector_match(2, 2, t=0.0, eps=1.0)
        assert result.status == "fail"
        assert result.max_residual == pytest.approx(15.0)

    def test_missing_loop_fails_the_dimension(self, monkeypatch):
        # Without its second loop the 2x3 codespace is twice the even sector.
        original = lsfs.stabilizers
        monkeypatch.setattr(lsfs, "stabilizers", lambda layout: original(layout)[:1])
        result = lsfs_sector_match(2, 3, t=1.0, eps=0.5)
        assert (result.status, result.detail) == ("fail", "dims 64 vs 32")


def majorana_moves(n):
    return [FermionOperator.term(n, 1.0, (2 * j,)) for j in range(n)]


def sector_walk(lattice, n_down, n_up):
    """The a^dag...a^dag seed of one (n_down, n_up) state and the spin-conserving hops."""
    n, mode = lattice.n_modes, lattice.mode_index
    seed = ladder_term(
        n, 1.0, [(mode(site, spin), RAISE) for spin, count in ((0, n_down), (1, n_up))
                 for site in range(count)])
    hops = [ladder_term(n, 1.0, ((mode(a, spin), RAISE), (mode(b, spin), LOWER)))
            for i, j, _ in lattice.edges() for a, b in ((i, j), (j, i)) for spin in (0, 1)]
    return seed, hops


def two_spin_match(w, h, loops, t=0.7, u=1.9, eps=0.3, delta=5.0):
    """(codespace dimension of ``loops``, states walked, residual) for the shipped
    two-spin ``hubbard_lsfs``, walked by the edge pairs of both blocks from the vacuum."""
    layout = EdgeLayout(w, h)
    spec, n_v = LsfsSpec(layout, 2), layout.n_vertices
    one = QubitOperator.identity(spec.n_qubits)
    projector = functools.reduce(operator.mul, (0.5 * (one + s) for s in loops), one)
    code_dim = round(projector.terms.get(PauliString.identity(spec.n_qubits), 0).real
                     * 2**spec.n_qubits)
    pairs = [FermionOperator.term(spec.n_modes, 1.0, (2 * (j + o), 2 * (k + o) + 1))
             for o in (0, n_v) for a, b in layout.edges() for j, k in ((a, b), (b, a))]
    psi = codewords(spec, None, pairs, loops)
    # On the codespace each of the 2P loops is +1, so the penalty is the constant -delta P.
    model = hubbard(LatticeSpec.rectangle(w, h, "row_major"), t, u, eps)
    model += FermionOperator.term(model.n_modes, -delta * len(layout.loops), ())
    columns = {s: fock_column(model, s) for s in psi}
    residual = fock_match(spec, psi, hubbard_lsfs(w, h, t, u, eps, delta), columns, loops)
    return code_dim, len(psi), residual


def block_loops(layout, blocks):
    """Each plaquette loop of the given spin blocks on the two-block register."""
    n_q = 2 * layout.n_edges
    return [QubitOperator.from_paulistring(PauliString(n_q, x << shift, z << shift, exp))
            for shift in (block * layout.n_edges for block in blocks)
            for x, z, exp in layout.loops]


class TestCodewordWalk:
    """``codewords`` and ``fock_match`` called directly, past the 12-qubit dense cap."""

    @pytest.mark.parametrize(
        "spec",
        [EncodingSpec.jordan_wigner(8), EncodingSpec.bravyi_kitaev(8),
         EncodingSpec.from_segments([2, 2, 2, 2]), random_forest_spec(8, random.Random(4))],
        ids=["jw", "bk", "sbk", "random"],
    )
    def test_majorana_walk_is_the_forest_code_map(self, spec):
        # FenwickForest.encode is the independent reference: psi_s is exactly
        # the basis state of s's stored partial sums, with amplitude 1.
        n = spec.n_modes
        code = {s: spec.forest.encode([s >> j & 1 for j in range(n)]) for s in range(1 << n)}
        expected = {s: {sum(bit << j for j, bit in enumerate(x)): 1} for s, x in code.items()}
        assert codewords(spec, None, majorana_moves(n)) == expected

    @pytest.mark.parametrize(
        "w, h, kind",
        [(3, 3, "jw"), (3, 3, "bk"), (3, 3, "sbk"), (3, 3, "random"), (3, 4, "sbk")],
    )
    def test_forest_sector_past_the_cap(self, w, h, kind):
        lattice = LatticeSpec.rectangle(w, h, "snake")
        if kind == "random":
            spec = random_forest_spec(lattice.n_modes, random.Random(7))
        else:
            spec = model_encoding(kind, lattice)
        seed, hops = sector_walk(lattice, 2, 2)
        psi = codewords(spec, seed, hops)
        assert len(psi) == math.comb(lattice.n_sites, 2) ** 2  # 1,296 at 3x3, 4,356 at 3x4
        model = hubbard(lattice, 0.7, 1.9, 0.3)
        columns = {s: fock_column(model, s) for s in psi}
        assert fock_match(spec, psi, encode_model(spec, model), columns) <= 1e-12

    def test_two_spin_lsfs_2x3(self):
        code_dim, walked, residual = two_spin_match(2, 3, block_loops(EdgeLayout(2, 3), (0, 1)))
        assert (code_dim, walked) == (1024, 1024)
        assert residual <= 1e-12

    def test_two_spin_walk_with_one_blocks_loops_fails_the_dimension(self):
        # The Fock walk still reaches 1,024 states; block 1's loops are missing
        # from the projector, so the codespace is 4x larger.
        code_dim, walked, _ = two_spin_match(2, 3, block_loops(EdgeLayout(2, 3), (0,)))
        assert (code_dim, walked) == (4096, 1024)


def counted(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that logs each call; return the log."""
    calls, original = [], getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestSharedFockSide:
    """A check walks the Fock side once for all its specs, and builds the
    loops' projector once."""

    def test_spectra_match_walks_once_for_two_specs(self, monkeypatch):
        verify._fock_walk.cache_clear()  # a walk left by another test would hide the count
        calls = counted(monkeypatch, verify, "fock_column")
        lattice = LatticeSpec.rectangle(2, 2, "snake")
        jw, bk = EncodingSpec.jordan_wigner(8), EncodingSpec.bravyi_kitaev(8)
        assert spectra_match(lattice, jw, bk).passed
        assert len(calls) == 256 + 256 * 8  # the model's columns, then one walk by the c_j

    def test_suite_encodes_and_walks_jw_once(self, monkeypatch):
        # The two spectra checks share JW: 8 moves and the model per forest, one walk each.
        encodes = counted(monkeypatch, verify, "encode_model")
        walks = counted(monkeypatch, verify, "codewords")
        assert run_suite(forest_trials=2).status == "pass"
        forests = [args[0].kind for args in encodes if isinstance(args[0], EncodingSpec)]
        assert Counter(forests) == {"jw": 9, "bk": 9, "forest": 9}
        walked = [args[0].kind for args in walks if isinstance(args[0], EncodingSpec)]
        assert Counter(walked) == {"jw": 1, "bk": 1, "forest": 1}

    def test_sector_match_builds_one_projector(self, monkeypatch):
        calls = counted(monkeypatch, QubitOperator, "__mul__")
        assert lsfs_sector_match(2, 3, eps=0.5).passed
        assert len(calls) == len(EdgeLayout(2, 3).loops)  # one factor per loop, once


class TestPenalty:
    @pytest.mark.parametrize("delta", [10.0, 100.0])
    def test_2x2(self, delta):
        result = penalty_gap_check(2, 2, t=1.0, delta=delta)
        assert result.passed
        assert result.max_residual < 1e-6

    def test_strip_has_nothing_to_penalize(self):
        result = penalty_gap_check(3, 1, t=1.0)
        assert not result.passed
        assert "no plaquettes" in result.detail

    def test_cap_skip(self):
        assert penalty_gap_check(4, 4, cap=12).status == "skipped"

    @pytest.mark.parametrize("mutation", ["single-x", "imaginary-phase"])
    def test_loop_that_is_not_conserved_fails_and_names_it(self, mutation, monkeypatch):
        # X on edge qubit 0 anticommutes with the Y of the (0, 1) hop; i S_p
        # commutes with every term but is not a +-1 string.
        original = EdgeLayout.__dict__["loops"].func

        def broken(layout):
            ((x, z, exp),) = original(layout)
            if mutation == "single-x":
                return ((1, 0, 0),)
            return ((x, z, (exp + 1) % 4),)

        monkeypatch.setattr(EdgeLayout, "loops", property(broken))
        result = penalty_gap_check(2, 2, delta=10.0)
        assert (result.status, result.max_residual) == ("fail", 1.0)
        assert result.detail == "loop (0, 1, 3, 2) is not a conserved +/-1 string"


class TestDenseCap:
    @pytest.mark.parametrize(
        "check, size",
        [
            (functools.partial(spectra_match, LatticeSpec.rectangle(2, 2, "snake"),
                               EncodingSpec.jordan_wigner(8), EncodingSpec.bravyi_kitaev(8)), 8),
            (functools.partial(lsfs_sector_match, 2, 2), 4),
            (functools.partial(lsfs_sector_match, 2, 3), 7),
            (functools.partial(penalty_gap_check, 2, 2), 4),
        ],
        ids=["spectra-2x2", "lsfs-sector-2x2", "lsfs-sector-2x3", "penalty-2x2"],
    )
    def test_runs_at_the_size_it_walks_and_skips_below(self, check, size):
        """A Fock check runs when the cap equals the qubits it walks, and one qubit
        less skips it with no residual and no time."""
        assert check(cap=size).status == "pass"
        skipped = check(cap=size - 1)
        assert (skipped.status, skipped.wall_time_s, skipped.detail) == (
            "skipped", 0.0, f"needs {size} qubits, dense cap {size - 1}")
        assert math.isnan(skipped.max_residual)


class TestSuite:
    def test_symbolic_suite(self):
        report = run_suite(symbolic_only=True, forest_trials=10)
        assert report.status == "pass"
        assert all(c.max_residual == 0.0 for c in report.checks)

    def test_full_suite(self):
        report = run_suite(forest_trials=10)
        assert report.status == "pass"

    def test_partial_when_capped(self):
        report = run_suite(cap=4, forest_trials=5)
        assert report.status == "partial"
        assert any(c.status == "skipped" for c in report.checks)

    def test_json_round_trip(self):
        report = run_suite(symbolic_only=True, forest_trials=5)
        data = json.loads(report.to_json())
        assert data["status"] == "pass"
        assert {c["name"] for c in data["checks"]} >= {"car-jw-n7", "car-bk-n7"}

    def test_sign_flipped_number_operator_fails_spectra(self, monkeypatch):
        # n_j -> (1 + Z)/2 keeps every spectrum (particle-hole symmetry);
        # only the entrywise basis map sees it.
        patch_monomial(monkeypatch, EncodingSpec, lambda indices: (-1) ** vertex_pairs(indices))
        report = run_suite(forest_trials=5)
        assert len(report.checks) == 11
        failed = [c.name for c in report.checks if c.status == "fail"]
        assert failed == ["spectra-2x2-jw-vs-bk", "spectra-2x2-jw-vs-sbk"]

    def test_swapped_ladder_operators_fail_car_and_spectra(self, monkeypatch):
        # a <-> a^dag is d -> -d.  The Majorana table keeps its masks, so CAR
        # cannot see it; only the entrywise spectra do.
        def d_sign(indices):
            return (-1) ** sum(index % 2 for index in indices)

        patch_monomial(monkeypatch, EncodingSpec, d_sign)
        report = run_suite(forest_trials=5)
        assert len(report.checks) == 11
        failed = [c.name for c in report.checks if c.status == "fail"]
        assert failed == ["spectra-2x2-jw-vs-bk", "spectra-2x2-jw-vs-sbk"]

    def test_negated_edge_pair_fails_both_sectors(self, monkeypatch):
        # -A(0, 1) on edge (0, 1), both directions: pi flux through its plaquette.
        patch_pairs(monkeypatch, lambda key, x, z, c: (x, z, -c if {*key} == {0, 1} else c))
        report = run_suite(forest_trials=5)
        failed = [c.name for c in report.checks if c.status == "fail"]
        assert failed == ["lsfs-sector-2x2", "lsfs-sector-2x3"]

    def test_flipped_lsfs_number_sign_fails_the_onsite_sector(self, monkeypatch):
        # n_k -> (1 + B_k) / 2; only lsfs-sector-2x3 has an onsite energy (eps 0.5).
        patch_monomial(monkeypatch, LsfsSpec, lambda indices: (-1) ** vertex_pairs(indices))
        report = run_suite(forest_trials=5)
        failed = [c.name for c in report.checks if c.status == "fail"]
        assert failed == ["lsfs-sector-2x3"]

    def test_scaled_loop_penalty_fails_both_penalty_checks(self, monkeypatch):
        # The first loop's penalty weighs -delta/2 (1 + 1e-9) instead of -delta/2.
        shipped = lsfs.single_spin_hamiltonian

        def scaled(layout, t, eps=0.0, delta=0.0):
            loop = PauliString(layout.n_edges, *layout.loops[0])
            extra = QubitOperator.from_paulistring(loop, -delta / 2.0 * 1e-9)
            return shipped(layout, t, eps, delta) + extra if delta else shipped(layout, t, eps)

        monkeypatch.setattr(lsfs, "single_spin_hamiltonian", scaled)
        report = run_suite(forest_trials=5)
        failed = {c.name: c for c in report.checks if c.status == "fail"}
        assert list(failed) == ["penalty-2x2-delta10", "penalty-2x2-delta100"]
        # The worst key is the scaled loop at 2 delta: 20 / 2 * 1e-9.
        assert failed["penalty-2x2-delta10"].max_residual == pytest.approx(1e-8, rel=1e-3)

    def test_to_dict_keys(self):
        (check, *_) = run_suite(symbolic_only=True, forest_trials=2).checks
        assert list(check.to_dict()) == [
            "name", "status", "max_residual", "wall_time_s", "detail"
        ]

    def test_deterministic_given_seed(self):
        a = run_suite(symbolic_only=True, forest_trials=8, seed=11)
        b = run_suite(symbolic_only=True, forest_trials=8, seed=11)
        assert [c.status for c in a.checks] == [c.status for c in b.checks]
