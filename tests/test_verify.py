"""The verification suite: symbolic sweeps and sparse Fock oracles."""

import json

import pytest

from fermap import encodings, lsfs
from fermap.encodings import EncodingSpec, lowering, raising
from fermap.lsfs import EdgeLayout, LsfsSpec, stabilizers
from fermap.models import LOWER, MAJORANA_C, MAJORANA_D, NUMBER, RAISE, LatticeSpec
from fermap.pauli import PauliString, QubitOperator
from fermap.verify import (
    check_car,
    check_car_random_forests,
    check_lsfs_algebra,
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
            forest, n = spec.forest, spec.n_modes
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
                table.append((PauliString(n, x, c_z), PauliString(n, x, d_z)))
            return tuple(table)

        monkeypatch.setattr(EncodingSpec, "majoranas", property(mutated))
        for spec in (EncodingSpec.bravyi_kitaev(8), EncodingSpec.from_segments([5, 3])):
            result = check_car(spec)
            assert not result.passed
            assert result.detail.startswith("pair (")
            assert result.max_residual == 2.0

    @pytest.mark.parametrize("flavor", [LOWER, RAISE])
    @pytest.mark.parametrize(
        "spec", [EncodingSpec.jordan_wigner(7), EncodingSpec.bravyi_kitaev(7),
                 EncodingSpec.from_segments([2, 3, 4])], ids=["jw", "bk", "forest"],
    )
    def test_broken_ladder_map_names_its_mode(self, spec, flavor, monkeypatch):
        # Only mode 3's a_3 (or a^dag_3) map is wrong: its d_j weight doubles.
        ladder_terms = encodings._ladder_terms

        def broken(spec, j, flavor_j):
            terms = ladder_terms(spec, j, flavor_j)
            if (j, flavor_j) != (3, flavor):
                return terms
            d = spec.majoranas[j][1]
            return {**terms, (d.x_mask, d.z_mask): 2 * terms[d.x_mask, d.z_mask]}

        monkeypatch.setattr(encodings, "_ladder_terms", broken)
        c, d = spec.majoranas[3]
        sign, ladder = (1, lowering) if flavor == LOWER else (-1, raising)
        diff = ladder(spec, 3) - QubitOperator(spec.n_modes, {c: 0.5, d: sign * 0.5j})
        result = check_car(spec)
        assert (result.status, result.detail) == ("fail", "mode 3")
        assert result.max_residual == max(map(abs, diff.terms.values())) == 0.5

    @pytest.mark.parametrize(
        "spec", [EncodingSpec.jordan_wigner(7), EncodingSpec.bravyi_kitaev(7),
                 EncodingSpec.from_segments([2, 3, 4])], ids=["jw", "bk", "forest"],
    )
    def test_mode_permuted_ladder_maps_fail(self, spec, monkeypatch):
        # a_j is mapped to a_{j+1}: the sum over j is unchanged, each mode is not.
        ladder_terms = encodings._ladder_terms

        def permuted(spec, j, flavor):
            if flavor in (LOWER, RAISE):
                j = (j + 1) % spec.n_modes
            return ladder_terms(spec, j, flavor)

        monkeypatch.setattr(encodings, "_ladder_terms", permuted)
        result = check_car(spec)
        assert (result.status, result.detail, result.max_residual) == ("fail", "mode 0", 0.5)


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
            a_strings, b_strings = map(list, original(layout))
            if mutation == "interior-a-drops-a-z":
                q = layout.edge_index(w + 1, w + 2)
                x, z = a_strings[q].x_mask, a_strings[q].z_mask
                a_strings[q] = PauliString(layout.n_edges, x, z & ~(1 << z.bit_length() - 1))
            elif mutation == "b0-drops-a-qubit":
                z = b_strings[0].z_mask
                b_strings[0] = PauliString(layout.n_edges, 0, z & (z - 1))
            else:
                a_strings[0], a_strings[1] = a_strings[1], a_strings[0]
            return tuple(a_strings), tuple(b_strings)

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


class TestSectorMatch:
    def test_2x2_hopping(self):
        result = lsfs_sector_match(2, 2, t=1.0)
        assert result.passed
        assert "codespace dim 8" in result.detail

    def test_2x2_onsite_only(self):
        assert lsfs_sector_match(2, 2, t=0.0, eps=1.0).passed

    def test_2x3(self):
        assert lsfs_sector_match(2, 3, t=1.3, eps=0.4).passed

    def test_cap_skip(self):
        assert lsfs_sector_match(4, 4, cap=12).status == "skipped"

    @pytest.mark.parametrize(
        "mutation, eps, residual",
        [("identity-pairs", 0.0, 1.0), ("pairs-leave-the-codespace", 1.0, 2**0.5)],
    )
    def test_pair_maps_unseen_by_the_hamiltonian(self, mutation, eps, residual, monkeypatch):
        # At t = 0 no term reads the pair maps.  Identity pairs make every
        # psi_s the vacuum (not orthonormal); a Z on edge qubit 0 with each
        # pair keeps the occupations but anticommutes with the loop.
        factor_maps = LsfsSpec.factor_maps

        def broken(spec, factors):
            maps = factor_maps(spec, factors)
            if factors[0][1] == NUMBER:
                return maps
            (((x, z), c),) = maps[0].items()
            return [{(0, 0) if mutation == "identity-pairs" else (x, z ^ 1): c}]

        monkeypatch.setattr(LsfsSpec, "factor_maps", broken)
        result = lsfs_sector_match(2, 2, t=0.0, eps=eps)
        assert result.status == "fail"
        assert result.max_residual == pytest.approx(residual)

    def test_missing_loop_fails_the_dimension(self, monkeypatch):
        # Without its second loop the 2x3 codespace is twice the even sector.
        original = lsfs.stabilizers
        monkeypatch.setattr(lsfs, "stabilizers", lambda layout: original(layout)[:1])
        result = lsfs_sector_match(2, 3, t=1.0, eps=0.5)
        assert (result.status, result.detail) == ("fail", "dims 64 vs 32")


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
            (loop,) = original(layout)
            if mutation == "single-x":
                return (PauliString(layout.n_edges, 1, 0),)
            return (PauliString(layout.n_edges, loop.x_mask, loop.z_mask, loop.phase_exp + 1),)

        monkeypatch.setattr(EdgeLayout, "loops", property(broken))
        result = penalty_gap_check(2, 2, delta=10.0)
        assert (result.status, result.max_residual) == ("fail", 1.0)
        assert result.detail == "loop (0, 1, 3, 2) is not a conserved +/-1 string"


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
        ladder_terms = encodings._ladder_terms

        def flipped(spec, j, flavor):
            terms = ladder_terms(spec, j, flavor)
            if flavor != "n":
                return terms
            return {key: c if key == (0, 0) else -c for key, c in terms.items()}

        monkeypatch.setattr(encodings, "_ladder_terms", flipped)
        report = run_suite(forest_trials=5)
        assert len(report.checks) == 11
        failed = [c.name for c in report.checks if c.status == "fail"]
        assert failed == ["spectra-2x2-jw-vs-bk", "spectra-2x2-jw-vs-sbk"]

    def test_swapped_ladder_operators_fail_car_and_spectra(self, monkeypatch):
        # a <-> a^dag keeps CAR, so only the table's ladder equality and the
        # entrywise spectra see it.  Hops are Majorana pairs, and a <-> a^dag
        # is d -> -d on them.
        ladder_terms = encodings._ladder_terms
        swap = {LOWER: RAISE, RAISE: LOWER}

        def swapped(spec, j, flavor):
            terms = ladder_terms(spec, j, swap.get(flavor, flavor))
            return {key: -c for key, c in terms.items()} if flavor == "d" else terms

        monkeypatch.setattr(encodings, "_ladder_terms", swapped)
        report = run_suite(forest_trials=5)
        assert len(report.checks) == 11
        failed = {c.name: c for c in report.checks if c.status == "fail"}
        assert list(failed) == [
            "car-jw-n7",
            "car-bk-n7",
            "car-random-forests-x5",
            "spectra-2x2-jw-vs-bk",
            "spectra-2x2-jw-vs-sbk",
        ]
        assert failed["car-jw-n7"].detail == "mode 0"
        assert failed["car-jw-n7"].max_residual == 1.0

    def test_negated_edge_pair_fails_both_sectors(self, monkeypatch):
        # -A(0, 1) on edge (0, 1), both directions: pi flux through its plaquette.
        factor_maps = LsfsSpec.factor_maps

        def negated(spec, factors):
            maps = factor_maps(spec, factors)
            modes = [mode for mode, _ in factors]
            if [flavor for _, flavor in factors] == [MAJORANA_C, MAJORANA_D] and {*modes} == {0, 1}:
                return [{key: -c for key, c in maps[0].items()}]
            return maps

        monkeypatch.setattr(LsfsSpec, "factor_maps", negated)
        report = run_suite(forest_trials=5)
        failed = [c.name for c in report.checks if c.status == "fail"]
        assert failed == ["lsfs-sector-2x2", "lsfs-sector-2x3"]

    def test_flipped_lsfs_number_sign_fails_the_onsite_sector(self, monkeypatch):
        # n_k -> (1 + B_k) / 2; only lsfs-sector-2x3 has an onsite energy (eps 0.5).
        factor_maps = LsfsSpec.factor_maps

        def flipped(spec, factors):
            maps = factor_maps(spec, factors)
            if factors[0][1] != NUMBER:
                return maps
            return [{key: c if key == (0, 0) else -c for key, c in maps[0].items()}]

        monkeypatch.setattr(LsfsSpec, "factor_maps", flipped)
        report = run_suite(forest_trials=5)
        failed = [c.name for c in report.checks if c.status == "fail"]
        assert failed == ["lsfs-sector-2x3"]

    def test_scaled_loop_penalty_fails_both_penalty_checks(self, monkeypatch):
        # The first loop's penalty weighs -delta/2 (1 + 1e-9) instead of -delta/2.
        shipped = lsfs.single_spin_hamiltonian

        def scaled(layout, t, eps=0.0, delta=0.0):
            extra = QubitOperator.from_paulistring(layout.loops[0], -delta / 2.0 * 1e-9)
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
