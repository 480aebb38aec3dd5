"""Majorana, ladder, number and hopping operators under JW/BK/forest maps."""

import random

import numpy as np
import pytest
from test_pauli import is_hermitian, weight

from fermap import lsfs
from fermap.encodings import (
    EncodingSpec,
    encode_model,
    hopping_op,
    majorana_c,
    majorana_d,
)
from fermap.fenwick import FenwickForest
from fermap.models import (
    FermionOperator,
    LatticeSpec,
    fock_matrix,
    hopping_pair,
    hubbard,
    number_product,
)
from fermap.pauli import PauliString, QubitOperator
from fermap.verify import random_forest_spec
from ladders import LOWER, RAISE, ladder_operator, ladder_term


def single(n, ops, coeff=1.0):
    return QubitOperator.from_paulistring(PauliString.from_ops(n, ops), coeff)


def number_op(spec, j):
    """n_j through the one synthesis path."""
    return encode_model(spec, number_product(spec.n_modes, (j,), 1.0))


def lowering(spec, j):
    """a_j = (c_j + i d_j) / 2, through the one synthesis path."""
    return encode_model(spec, ladder_term(spec.n_modes, 1.0, ((j, LOWER),)))


def raising(spec, j):
    """a^dag_j = (c_j - i d_j) / 2, through the one synthesis path."""
    return encode_model(spec, ladder_term(spec.n_modes, 1.0, ((j, RAISE),)))


class TestKind:
    @pytest.mark.parametrize(
        "spec,kind",
        [
            (EncodingSpec.jordan_wigner(7), "jw"),
            (EncodingSpec.from_segments([1] * 7), "jw"),
            (EncodingSpec(FenwickForest.build(1)), "jw"),
            (EncodingSpec.bravyi_kitaev(7), "bk"),
            (EncodingSpec.from_segments([7]), "bk"),
            (EncodingSpec(FenwickForest.build(7, [3, 4])), "forest"),
            (EncodingSpec.from_segments([1, 5, 1]), "forest"),
        ],
    )
    def test_read_from_forest_shape(self, spec, kind):
        assert spec.kind == kind

    def test_equal_forests_equal_specs(self):
        assert EncodingSpec.from_segments([1] * 5) == EncodingSpec.jordan_wigner(5)


class TestMajoranas:
    def test_mask_table_matches_set_queries(self):
        # c_j: X on j and U(j), Z on P(j); d_j: the same X, Z on j and P(j) minus F(j).
        rng = random.Random(21)
        for _ in range(200):
            spec = random_forest_spec(rng.randint(1, 40), rng)
            forest = spec.forest
            for j in range(spec.n_modes):
                parity, children = set(forest.parity_set(j)), set(forest.children(j))
                x = sum(1 << q for q in (*forest.ancestors(j), j))
                z_c = sum(1 << q for q in parity)
                z_d = sum(1 << q for q in parity - children | {j})
                assert spec.majoranas[j] == (x, z_c, z_d)

    def test_bk7_c3(self):
        spec = EncodingSpec.bravyi_kitaev(7)
        assert majorana_c(spec, 3) == single(7, [(1, "Z"), (2, "Z"), (3, "X"), (6, "X")])

    def test_jw_closed_form(self):
        spec = EncodingSpec.jordan_wigner(5)
        for j in range(5):
            zs = [(q, "Z") for q in range(j)]
            assert majorana_c(spec, j) == single(5, zs + [(j, "X")])
            assert majorana_d(spec, j) == single(5, zs + [(j, "Y")])

    def test_bk16_site9(self):
        spec = EncodingSpec.bravyi_kitaev(16)
        c9 = majorana_c(spec, 9)
        assert c9 == single(
            16, [(7, "Z"), (8, "Z"), (9, "X"), (11, "X"), (15, "X")]
        )
        assert c9.max_weight() == 5
        assert majorana_d(spec, 9) == single(
            16, [(7, "Z"), (9, "Y"), (11, "X"), (15, "X")]
        )

    @pytest.mark.parametrize("d", range(7))
    def test_bk_exact_locality_on_powers_of_two(self, d):
        n = 2**d
        spec = EncodingSpec.bravyi_kitaev(n)
        for j in range(n):
            assert majorana_c(spec, j).max_weight() == d + 1

    def test_forest_all_singletons_equals_jw(self):
        n = 9
        jw = EncodingSpec.jordan_wigner(n)
        forest = EncodingSpec.from_segments([1] * n)
        for j in range(n):
            assert majorana_c(forest, j) == majorana_c(jw, j)
            assert majorana_d(forest, j) == majorana_d(jw, j)

    @pytest.mark.parametrize("segments", [None, [3, 5, 8], [1, 7, 4, 4], [16]])
    def test_d_avoids_children(self, segments):
        spec = (
            EncodingSpec.bravyi_kitaev(16)
            if segments is None
            else EncodingSpec.from_segments(segments)
        )
        for j in range(16):
            ((string, _),) = majorana_d(spec, j).sorted_terms()
            support = string.x_mask | string.z_mask
            for child in spec.forest.children(j):
                assert not (support >> child) & 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda: EncodingSpec.jordan_wigner(7),
            lambda: EncodingSpec.bravyi_kitaev(7),
            lambda: EncodingSpec.from_segments([3, 2, 2]),
            lambda: EncodingSpec.from_segments([4, 3]),
            lambda: EncodingSpec.from_segments([1, 5, 1]),
        ],
    )
    def test_majorana_car(self, make):
        spec = make()
        n = spec.n_modes
        ident2 = QubitOperator.identity(n, 2.0)
        cs = [majorana_c(spec, j) for j in range(n)]
        ds = [majorana_d(spec, j) for j in range(n)]
        for i in range(n):
            for j in range(n):
                cc = cs[i] * cs[j] + cs[j] * cs[i]
                dd = ds[i] * ds[j] + ds[j] * ds[i]
                cd = cs[i] * ds[j] + ds[j] * cs[i]
                if i == j:
                    assert cc == ident2 and dd == ident2
                else:
                    assert cc.is_zero() and dd.is_zero()
                assert cd.is_zero()

    def test_index_out_of_range(self):
        spec = EncodingSpec.bravyi_kitaev(4)
        with pytest.raises(IndexError):
            majorana_c(spec, 4)
        for build in (majorana_c, majorana_d, lowering, raising, number_op):
            for j in (-1, spec.n_modes):
                with pytest.raises(IndexError):
                    build(spec, j)


class TestLadder:
    def test_bk7_raising_site2(self):
        # a^dag_2 collapses to Z1 (X - iY)/2 |at 2| X3 X6.
        spec = EncodingSpec.bravyi_kitaev(7)
        expected = single(7, [(1, "Z"), (2, "X"), (3, "X"), (6, "X")], 0.5) + single(
            7, [(1, "Z"), (2, "Y"), (3, "X"), (6, "X")], -0.5j
        )
        assert raising(spec, 2) == expected

    @pytest.mark.parametrize(
        "spec",
        [EncodingSpec.jordan_wigner(7), EncodingSpec.bravyi_kitaev(7)],
        ids=["jw", "bk"],
    )
    def test_car_on_ladders(self, spec):
        n = spec.n_modes
        for i in range(n):
            ai = lowering(spec, i)
            assert (ai * ai).is_zero()
            for j in range(n):
                aj_dag = raising(spec, j)
                anti = ai * aj_dag + aj_dag * ai
                if i == j:
                    assert anti == QubitOperator.identity(n)
                else:
                    assert anti.is_zero()
                aj = lowering(spec, j)
                assert (ai * aj + aj * ai).is_zero()

    def test_jw_lowering_matches_fock(self):
        n = 5
        spec = EncodingSpec.jordan_wigner(n)
        for j in range(n):
            oracle = fock_matrix(ladder_term(n, 1.0, ((j, LOWER),)))
            assert np.array_equal(lowering(spec, j).to_dense(), oracle)


class TestNumberOp:
    def test_jw_form(self):
        spec = EncodingSpec.jordan_wigner(4)
        for j in range(4):
            expected = QubitOperator.identity(4, 0.5) + single(4, [(j, "Z")], -0.5)
            assert number_op(spec, j) == expected
            assert max(weight(ps) for ps, _ in number_op(spec, j) if weight(ps)) == 1

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bk_root_weight(self, d):
        n = 2**d
        spec = EncodingSpec.bravyi_kitaev(n)
        z_weights = [weight(ps) for ps, _ in number_op(spec, n - 1) if weight(ps)]
        assert z_weights == [d + 1]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_eigenvalues_zero_one(self, n):
        spec = EncodingSpec.bravyi_kitaev(n)
        for j in range(n):
            evals = np.sort(np.linalg.eigvalsh(number_op(spec, j).to_dense()))
            half = 1 << (n - 1)
            assert np.allclose(evals[:half], 0.0, atol=1e-12)
            assert np.allclose(evals[half:], 1.0, atol=1e-12)

    def test_idempotent_symbolically(self):
        for segments in (None, [5, 11], [1] * 16, [2, 6, 8]):
            spec = (
                EncodingSpec.bravyi_kitaev(16)
                if segments is None
                else EncodingSpec.from_segments(segments)
            )
            for j in range(16):
                nj = number_op(spec, j)
                assert nj * nj == nj


class TestHoppingOp:
    def test_jw_adjacent(self):
        spec = EncodingSpec.jordan_wigner(4)
        hop = hopping_op(spec, 1, 2)
        expected = single(4, [(1, "X"), (2, "X")], 0.5) + single(
            4, [(1, "Y"), (2, "Y")], 0.5
        )
        assert hop == expected
        assert hop.max_weight() == 2

    def test_same_site_rejected(self):
        with pytest.raises(ValueError):
            hopping_op(EncodingSpec.jordan_wigner(4), 2, 2)

    def test_bk16_first_to_last(self):
        # The root's X factors cancel between the two Majorana strings,
        # so the measured weight lands below the depth+root-children sum.
        spec = EncodingSpec.bravyi_kitaev(16)
        weights = sorted(weight(ps) for ps, _ in hopping_op(spec, 0, 15))
        assert weights == [5, 7]
        assert (
            max(
                hopping_op(spec, i, j).max_weight()
                for i in range(16)
                for j in range(i + 1, 16)
            )
            == 7
        )

    def test_hermitian_and_matches_oracle(self):
        n = 4
        for spec in (EncodingSpec.jordan_wigner(n), EncodingSpec.bravyi_kitaev(n)):
            for i in range(n):
                for j in range(i + 1, n):
                    hop = hopping_op(spec, i, j)
                    assert is_hermitian(hop)
                    oracle = fock_matrix(
                        ladder_operator(
                            n,
                            (
                                (1.0, ((i, RAISE), (j, LOWER))),
                                (1.0, ((j, RAISE), (i, LOWER))),
                            ),
                        )
                    )
                    got = np.sort(np.linalg.eigvalsh(hop.to_dense()))
                    want = np.sort(np.linalg.eigvalsh(oracle))
                    assert np.max(np.abs(got - want)) < 1e-12

    # Every subnormal k * 2^-1074 with k = 1..64, both signs: the ladder form
    # rounded t/4 and doubled it, which missed t/2 on a quarter of these.
    SUBNORMALS = [sign * k * 5e-324 for k in range(1, 65) for sign in (1, -1)]

    def test_subnormal_coupling_is_exactly_half_per_string(self):
        trees = (
            EncodingSpec.jordan_wigner(6),
            EncodingSpec.bravyi_kitaev(6),
            EncodingSpec.from_segments([3, 3]),
        )
        layout = lsfs.EdgeLayout(3, 2)
        cases = [(spec, (i, j)) for spec in trees for i, j in [(0, 1), (0, 5), (2, 4)]]
        cases += [(lsfs.LsfsSpec(layout), edge) for edge in layout.edges()]
        for t in self.SUBNORMALS:
            for spec, (i, j) in cases:
                op = encode_model(spec, hopping_pair(spec.n_modes, i, j, t))
                assert len(op) == (2 if t / 2 else 0)
                for coeff in op.terms.values():
                    assert sorted(map(abs, (coeff.real, coeff.imag))) == [0.0, abs(t / 2)]


class TestEncodeModel:
    def test_zero_model(self):
        spec = LatticeSpec.rectangle(2, 1)
        enc = EncodingSpec.jordan_wigner(spec.n_modes)
        assert encode_model(enc, hubbard(spec, 0.0, 0.0)).is_zero()

    def test_1x2_against_fock_oracle(self):
        spec = LatticeSpec.rectangle(2, 1)
        model = hubbard(spec, t=1.0, u=3.0)
        enc = encode_model(EncodingSpec.jordan_wigner(4), model)
        assert is_hermitian(enc)
        got = np.sort(np.linalg.eigvalsh(enc.to_dense()))
        want = np.sort(np.linalg.eigvalsh(fock_matrix(model)))
        assert np.max(np.abs(got - want)) < 1e-9

    def test_jw_vs_bk_2x2_spectra(self):
        spec = LatticeSpec.rectangle(2, 2)
        model = hubbard(spec, t=1.0, u=2.0)
        evals = []
        for enc in (EncodingSpec.jordan_wigner(8), EncodingSpec.bravyi_kitaev(8)):
            evals.append(np.sort(np.linalg.eigvalsh(encode_model(enc, model).to_dense())))
        assert np.max(np.abs(evals[0] - evals[1])) < 1e-9

    def test_hermitian_model_real_coefficients(self):
        spec = LatticeSpec.rectangle(2, 2)
        model = hubbard(spec, t=0.7, u=1.9, eps=0.3)
        for enc in (
            EncodingSpec.jordan_wigner(8),
            EncodingSpec.bravyi_kitaev(8),
            EncodingSpec.from_segments([2, 2, 2, 2]),
        ):
            assert is_hermitian(encode_model(enc, model))

    def test_model_too_large(self):
        enc = EncodingSpec.jordan_wigner(2)
        with pytest.raises(IndexError):
            encode_model(enc, FermionOperator.term(4, 1.0, (6, 7)))


def fock_to_qubit_basis(forest):
    """Permutation P sending occupancy state s (n_j = bit j) to |encode(n)>."""
    n = forest.n_sites
    perm = np.zeros((1 << n, 1 << n))
    for s in range(1 << n):
        code = forest.encode([(s >> j) & 1 for j in range(n)])
        perm[sum(bit << j for j, bit in enumerate(code)), s] = 1.0
    return perm


BASIS_MAP_SPECS = {
    "jw": EncodingSpec.jordan_wigner(8),
    "bk": EncodingSpec.bravyi_kitaev(8),
    "sbk-2222": EncodingSpec.from_segments([2, 2, 2, 2]),
    **{f"random-{seed}": random_forest_spec(8, random.Random(seed)) for seed in (1, 2, 3)},
}


class TestFockBasisMap:
    """Encoded model equals P . Fock matrix . P^T entry by entry.

    Spectra cannot see errors that a particle-hole symmetry hides, such as
    a sign-flipped number operator; the entrywise map can.
    """

    @pytest.mark.parametrize("name", sorted(BASIS_MAP_SPECS))
    def test_hubbard_2x2(self, name):
        spec = BASIS_MAP_SPECS[name]
        model = hubbard(LatticeSpec.rectangle(2, 2), t=0.7, u=1.9, eps=0.3)
        perm = fock_to_qubit_basis(spec.forest)
        expected = perm @ fock_matrix(model) @ perm.T
        got = encode_model(spec, model).to_dense()
        assert np.max(np.abs(got - expected)) <= 1e-12
