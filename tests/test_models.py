"""Lattice models, edge combinatorics, and the dense Fock oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermap.models import (
    FermionOperator,
    LatticeSpec,
    fock_matrix,
    hopping_pair,
    hubbard,
    hubbard_terms,
    number_product,
)
from fermap.pauli import DenseCapError
from ladders import LOWER, NUMBER, RAISE, ladder_term


def total_number_matrix(n_modes):
    """Diagonal particle-number operator on the Fock basis."""
    return np.diag(np.bitwise_count(np.arange(1 << n_modes, dtype=np.uint64))).astype(complex)


def hermitian_conjugate(op):
    """The adjoint term by term: conjugated coefficient, reversed monomial (each
    Majorana is Hermitian)."""
    terms = tuple((coeff.conjugate(), monomial[::-1]) for coeff, monomial in op.terms)
    return FermionOperator(op.n_modes, terms)


def reference_edges(sides, names):
    """(i, j, names[a]) for each pair of sites whose coordinates differ by +1 on
    axis a alone, by i, then a; site ids are sum_a coord_a * prod(sides[:a])."""
    def site(coords):
        return sum(x * math.prod(sides[:a]) for a, x in enumerate(coords))

    out = []
    for u, v in itertools.product(itertools.product(*map(range, sides)), repeat=2):
        step = [y - x for x, y in zip(u, v)]
        if sorted(step) == [0] * (len(sides) - 1) + [1]:
            out.append((site(u), step.index(1), site(v)))
    return [(i, j, names[a]) for i, a, j in sorted(out)]


class TestLattice:
    @pytest.mark.parametrize("w, h", itertools.product(range(1, 6), repeat=2))
    def test_rectangle_edges_are_unit_steps(self, w, h):
        # The exact list: LSFS qubit order and term order follow it.
        expected = reference_edges((w, h), ("horizontal", "vertical"))
        for ordering in ("snake", "row_major"):
            assert LatticeSpec.rectangle(w, h, ordering).edges() == expected

    @pytest.mark.parametrize("dim, w", itertools.product(range(1, 5), repeat=2))
    def test_hypercube_edges_are_unit_steps(self, dim, w):
        edges = LatticeSpec.hypercube(dim, w).edges()
        reference = reference_edges((w,) * dim, [f"axis{a}" for a in range(dim)])
        assert len(edges) == len(set(edges)) and set(edges) == set(reference)
        assert edges == sorted(edges, key=lambda e: (e[0], int(e[2].removeprefix("axis"))))

    def test_rectangle_edges(self):
        spec = LatticeSpec.rectangle(2, 1)
        assert spec.edges() == [(0, 1, "horizontal")]
        spec = LatticeSpec.rectangle(2, 2)
        assert len(spec.edges()) == 4

    def test_hypercube_edges_match_formula(self):
        for dim in range(1, 5):
            for w in range(1, 5):
                spec = LatticeSpec.hypercube(dim, w)
                assert len(spec.edges()) == dim * (w - 1) * w ** (dim - 1)

    def test_orderings_identity_on_line(self):
        for ordering in ("row_major", "snake"):
            spec = LatticeSpec.rectangle(6, 1, ordering)
            # 6x1 is a wide rectangle; snake transposes to run down the column.
            if ordering == "snake":
                assert spec.site_order == tuple(range(6))
            spec = LatticeSpec.rectangle(1, 6, ordering)
            assert spec.site_order == tuple(range(6))

    def test_snake_is_short_side_raster(self):
        spec = LatticeSpec.rectangle(3, 3, "snake")
        assert spec.site_order == tuple(range(9))
        wide = LatticeSpec.rectangle(4, 2, "snake")
        # consecutive indices run along the short (h=2) side
        assert wide.site_order == (0, 2, 4, 6, 1, 3, 5, 7)

    def test_mode_blocks(self):
        spec = LatticeSpec.rectangle(2, 2)
        assert spec.mode_index(3, 0) == 3
        assert spec.mode_index(0, 1) == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            LatticeSpec.rectangle(0, 3)
        with pytest.raises(ValueError):
            LatticeSpec.hypercube(0, 3)
        with pytest.raises(ValueError):
            LatticeSpec.rectangle(2, 2, "diagonal")


class TestHubbard:
    def test_1x2_term_census(self):
        spec = LatticeSpec.rectangle(2, 1)
        groups = hubbard_terms(spec, t=1.0, u=2.0)
        hops = [g for g in groups if g[0] == "horizontal"]
        dens = [g for g in groups if g[0] == "density-density"]
        assert len(hops) == 2  # one per spin
        assert len(dens) == 2
        assert not [g for g in groups if g[0] == "onsite"]

    def test_t_zero_only_interactions(self):
        spec = LatticeSpec.rectangle(2, 2)
        groups = hubbard_terms(spec, t=0.0, u=1.0)
        assert {klass for klass, _ in groups} == {"density-density"}

    def test_hermitian_term_by_term(self):
        spec = LatticeSpec.rectangle(2, 2)
        for _, term in hubbard_terms(spec, t=1.3, u=0.7, eps=0.2):
            conj = hermitian_conjugate(term)
            mat = fock_matrix(term)
            assert np.max(np.abs(mat - fock_matrix(conj))) < 1e-12
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12

    def test_full_model_real_spectrum_and_number_conservation(self):
        spec = LatticeSpec.rectangle(2, 2)
        ham = fock_matrix(hubbard(spec, t=1.0, u=4.0))
        assert np.max(np.abs(ham - ham.conj().T)) < 1e-12
        n_tot = total_number_matrix(spec.n_modes)
        assert np.max(np.abs(ham @ n_tot - n_tot @ ham)) < 1e-12

    def test_1x2_exact_spectrum(self):
        # Two-site Hubbard at half filling: singlet levels from the
        # secular equation E(E - U) = 2 t^2 appear in the spectrum.
        t, u = 1.0, 3.0
        spec = LatticeSpec.rectangle(2, 1)
        evals = np.linalg.eigvalsh(fock_matrix(hubbard(spec, t, u)))
        lowest = 0.5 * (u - np.sqrt(u * u + 16 * t * t))
        assert np.min(np.abs(evals - lowest)) < 1e-9
        assert np.min(np.abs(evals - 0.0)) < 1e-12


class TestFermionOperator:
    def test_validation(self):
        # Majorana indices run over [0, 2n): c_j is 2j, d_j is 2j + 1.
        FermionOperator.term(2, 1.0, (0, 3))
        with pytest.raises(IndexError):
            FermionOperator.term(2, 1.0, (4,))
        with pytest.raises(IndexError):
            FermionOperator.term(2, 1.0, (1, -1))

    def test_hopping_pair_requires_distinct(self):
        with pytest.raises(ValueError):
            hopping_pair(4, 1, 1)

    @pytest.mark.parametrize("t", [1.0, -1.0, 0.73, -2.5e-3, 3.0e5])
    def test_majorana_hop_equals_ladder_hop(self, t):
        # hubbard() builds both sides of spectra_match, so this pins the
        # sign of hopping_pair against a^dag_i a_j + a^dag_j a_i directly,
        # on the numpy ladder matrices.
        for n in range(2, 7):
            for i, j in itertools.permutations(range(n), 2):
                ladder = sum(ladder_matrix(n, p, RAISE) @ ladder_matrix(n, q, LOWER)
                             for p, q in ((i, j), (j, i)))
                diff = fock_matrix(hopping_pair(n, i, j, t)) - t * ladder
                assert np.max(np.abs(diff)) == 0

    def test_number_products_equal_ladder_numbers(self):
        # n_j = (1 + i c_j d_j) / 2 and n_i n_j, against the numpy ladder matrices.
        n = 3
        for modes in [(0,), (2,), (0, 1), (2, 0), (1, 2)]:
            expected = 0.7 * np.linalg.multi_dot(
                [np.eye(8)] + [ladder_matrix(n, m, NUMBER) for m in modes])
            assert np.max(np.abs(fock_matrix(number_product(n, modes, 0.7)) - expected)) == 0

    def test_conjugate_reverses(self):
        op = FermionOperator.term(3, 2j, (0, 3))
        assert hermitian_conjugate(op).terms == ((-2j, (3, 0)),)


class TestFockOracle:
    def test_car_on_matrices(self):
        n = 4
        for i in range(n):
            for j in range(n):
                ai = fock_matrix(ladder_term(n, 1.0, ((i, LOWER),)))
                aj = fock_matrix(ladder_term(n, 1.0, ((j, LOWER),)))
                adj = fock_matrix(ladder_term(n, 1.0, ((j, RAISE),)))
                anti = ai @ adj + adj @ ai
                expected = np.eye(16) if i == j else np.zeros((16, 16))
                assert np.max(np.abs(anti - expected)) < 1e-12
                assert np.max(np.abs(ai @ aj + aj @ ai)) < 1e-12

    def test_number_is_raise_lower(self):
        n = 3
        for j in range(n):
            nj = fock_matrix(number_product(n, (j,), 1.0))
            pair = fock_matrix(ladder_term(n, 1.0, ((j, RAISE), (j, LOWER))))
            assert np.array_equal(nj, pair)

    def test_vacuum_and_filling(self):
        n = 3
        vac = np.zeros(8)
        vac[0] = 1.0
        a0_dag = fock_matrix(ladder_term(n, 1.0, ((0, RAISE),)))
        one = a0_dag @ vac
        assert one[1] == 1.0
        n_tot = total_number_matrix(n)
        assert np.array_equal(n_tot @ one, one)


class TestOrderingLocality:
    @pytest.mark.parametrize("w,h", [(2, 2), (2, 5), (3, 3), (3, 7), (4, 4)])
    def test_snake_vertical_mode_distance(self, w, h):
        # Raster along the short side: vertical neighbours sit exactly
        # min(w, h) apart in mode index, horizontal ones are adjacent.
        spec = LatticeSpec.rectangle(w, h, "snake")
        order = spec.site_order
        for i, j, klass in spec.edges():
            dist = abs(order[i] - order[j])
            if klass == "horizontal":
                assert dist == 1
            else:
                assert dist == min(w, h)


def ladder_matrix(n_modes, mode, flavor):
    """Dense 2^n x 2^n matrix of one ladder or number operator."""
    dim = 1 << n_modes
    states = np.arange(dim, dtype=np.uint64)
    bit = np.uint64(1 << mode)
    below = np.uint64((1 << mode) - 1)
    signs = 1.0 - 2.0 * (np.bitwise_count(states & below).astype(np.int64) % 2)
    occupied = (states & bit) != 0
    mat = np.zeros((dim, dim), dtype=complex)
    if flavor == NUMBER:
        mat[states[occupied], states[occupied]] = 1.0
        return mat
    src = states[occupied] if flavor == LOWER else states[~occupied]
    mat[src ^ bit, src] = signs[src]
    return mat


def majorana_matrix(n_modes, index):
    """c_j = a + a^dag (index 2j) or d_j = i (a^dag - a) (index 2j + 1), from the ladder
    matrices."""
    lower, raise_ = (ladder_matrix(n_modes, index >> 1, f) for f in (LOWER, RAISE))
    return 1j * (raise_ - lower) if index & 1 else lower + raise_


def ladder_product(op):
    """Reference Fock matrix: each term as a product of Majorana matrices."""
    dim = 1 << op.n_modes
    total = np.zeros((dim, dim), dtype=complex)
    for coeff, monomial in op.terms:
        acc = np.eye(dim, dtype=complex)
        for index in monomial:  # leftmost Majorana acts last
            acc = acc @ majorana_matrix(op.n_modes, index)
        total += coeff * acc
    return total


COEFFICIENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, complex(-0.0, 0.0), complex(0.0, -0.0),
                     complex(-0.0, -0.0), complex(-2.5, -0.0), complex(-0.0, 0.5)]),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def fermion_operators(draw):
    n = draw(st.integers(1, 6))
    monomial = st.lists(st.integers(0, 2 * n - 1), max_size=4).map(tuple)
    term = st.tuples(COEFFICIENTS.map(complex), monomial)
    return FermionOperator(n, tuple(draw(st.lists(term, max_size=5))))


class TestFockExactness:
    """``fock_matrix`` equals the Majorana-matrix product byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(fermion_operators())
    def test_matches_ladder_product(self, op):
        assert fock_matrix(op).tobytes() == ladder_product(op).tobytes()

    def test_hubbard_2x2(self):
        model = hubbard(LatticeSpec.rectangle(2, 2), t=0.7, u=1.9, eps=0.3)
        assert fock_matrix(model).tobytes() == ladder_product(model).tobytes()

    def test_cap(self):
        with pytest.raises(DenseCapError):
            fock_matrix(FermionOperator.zero(5), cap=4)
