"""Pauli string and operator algebra, checked against dense matrices."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermap.pauli import (
    DenseCapError,
    DimensionError,
    PauliString,
    QubitOperator,
    _commutes,
)


def adjoint(a):
    """The adjoint of a string (negated phase) or an operator (conjugated coefficients)."""
    if isinstance(a, PauliString):
        return PauliString(a.n_qubits, a.x_mask, a.z_mask, -a.phase_exp)
    return QubitOperator(a.n_qubits, {s: c.conjugate() for s, c in a.terms.items()})


def is_hermitian(op):
    """Every key is a phase-free, Hermitian string, so real coefficients suffice."""
    return all(c.imag == 0 for c in op.terms.values())


def ps(n, ops, phase_exp=0):
    return PauliString.from_ops(n, ops, phase_exp)


def weight(string):
    """Number of qubits acted on non-trivially: the bit count of the masks' union."""
    return (string.x_mask | string.z_mask).bit_count()


def commutes(a, b):
    """``pauli._commutes`` on the masks of two strings."""
    return _commutes(a.x_mask, a.z_mask, b.x_mask, b.z_mask)


def letter_at(string, qubit):
    """The letter on one qubit, read bit by bit from the masks."""
    bits = (string.x_mask >> qubit) & 1, (string.z_mask >> qubit) & 1
    return {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[bits]


def random_string(draw, n):
    x = draw(st.integers(0, (1 << n) - 1))
    z = draw(st.integers(0, (1 << n) - 1))
    p = draw(st.integers(0, 3))
    return PauliString(n, x, z, p)


@st.composite
def pauli_strings(draw, n=5):
    return random_string(draw, n)


AMPS = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


def random_operator(data, n):
    """A sum of up to five random strings on n qubits with random coefficients."""
    op = QubitOperator.zero(n)
    for string in data.draw(st.lists(pauli_strings(n), max_size=5)):
        op = op + QubitOperator.from_paulistring(string, data.draw(AMPS))
    return op


def dense(string):
    return QubitOperator.from_paulistring(string).to_dense()


def kron_dense(string):
    """Literal Kronecker-product rendering, independent of QubitOperator.to_dense."""
    mats = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.diag([1.0, -1.0]).astype(complex),
    }
    out = np.eye(1, dtype=complex)
    for q in reversed(range(string.n_qubits)):
        out = np.kron(out, mats[letter_at(string, q)])
    return string.phase * out


class TestSingleStrings:
    def test_x_times_z_is_minus_i_y(self):
        prod = ps(1, [(0, "X")]) * ps(1, [(0, "Z")])
        assert prod == ps(1, [(0, "Y")], phase_exp=3)
        assert prod.phase == -1j

    def test_string_squares_to_identity(self):
        s = ps(7, [(1, "Z"), (2, "Z"), (3, "X"), (6, "X")])
        assert s * s == PauliString.identity(7)

    def test_majorana_pair_product(self):
        # c_3 * d_3 on the 7-site tree collapses to a phase times Z2 Z3.
        c3 = ps(7, [(1, "Z"), (2, "Z"), (3, "X"), (6, "X")])
        d3 = ps(7, [(1, "Z"), (3, "Y"), (6, "X")])
        prod = c3 * d3
        assert prod.ops() == ((2, "Z"), (3, "Z"))
        assert prod.phase in (1j, -1j)
        dense = kron_dense(c3) @ kron_dense(d3)
        assert np.allclose(dense, kron_dense(prod), atol=1e-12)
        assert prod.phase == 1j

    def test_weight(self):
        assert weight(PauliString.identity(16)) == 0
        assert weight(ps(7, [(1, "Z"), (2, "Z"), (3, "X"), (6, "X")])) == 4
        d9 = ps(16, [(7, "Z"), (9, "Y"), (11, "X"), (15, "X")])
        assert weight(d9) == 4

    def test_commutes(self):
        z0 = ps(1, [(0, "Z")])
        x0 = ps(1, [(0, "X")])
        assert commutes(z0, z0)
        assert not commutes(x0, z0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            ps(2, [(0, "X")]) * ps(3, [(0, "X")])

    def test_from_ops_rejects_bad_input(self):
        with pytest.raises(IndexError):
            ps(2, [(2, "X")])
        with pytest.raises(ValueError):
            ps(2, [(0, "Q")])
        with pytest.raises(ValueError):
            ps(2, [(0, "X"), (0, "Z")])

    def test_str(self):
        assert str(ps(3, [(0, "X"), (2, "Z")], phase_exp=3)) == "-i*X0 Z2"
        assert str(PauliString.identity(2)) == "I"


class TestStringProperties:
    @settings(max_examples=200, deadline=None)
    @given(pauli_strings(), pauli_strings())
    def test_commutation_vs_product_order(self, a, b):
        ab, ba = a * b, b * a
        assert (ab.x_mask, ab.z_mask) == (ba.x_mask, ba.z_mask)
        if commutes(a, b):
            assert ab.phase_exp == ba.phase_exp
        else:
            assert (ab.phase_exp - ba.phase_exp) % 4 == 2

    @settings(max_examples=200, deadline=None)
    @given(pauli_strings(), pauli_strings(), pauli_strings())
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=100, deadline=None)
    @given(pauli_strings(), pauli_strings())
    def test_weight_subadditive(self, a, b):
        assert weight(a * b) <= weight(a) + weight(b)

    @settings(max_examples=60, deadline=None)
    @given(pauli_strings(n=4), pauli_strings(n=4))
    def test_dense_homomorphism(self, a, b):
        lhs = dense(a * b)
        rhs = dense(a) @ dense(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(pauli_strings(n=4))
    def test_dense_matches_kron(self, a):
        assert np.max(np.abs(dense(a) - kron_dense(a))) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 61, 62, 64, 65, 200]).flatmap(pauli_strings))
    def test_ops_matches_letter_scan(self, a):
        scan = tuple(
            (q, letter_at(a, q)) for q in range(a.n_qubits) if letter_at(a, q) != "I"
        )
        assert a.ops() == scan

    @settings(max_examples=100, deadline=None)
    @given(pauli_strings())
    def test_adjoint_involution(self, a):
        assert adjoint(adjoint(a)) == a
        assert (a * adjoint(a)) == PauliString.identity(a.n_qubits)


class TestQubitOperator:
    def test_add_zero_scale(self):
        h = QubitOperator.from_paulistring(ps(2, [(0, "X")]), 0.5)
        assert h + 0.0 * h == h
        assert (h + h) == 2.0 * h
        assert (h - h).is_zero()

    def test_phase_folding(self):
        op = QubitOperator.from_paulistring(ps(2, [(0, "Y")], phase_exp=1), 2.0)
        ((key, coeff),) = op.sorted_terms()
        assert key.phase_exp == 0
        assert coeff == 2j

    def test_nilpotent_square(self):
        # (X + iY)/2 is a corner projector's ladder; it squares to zero.
        a_dag = QubitOperator.from_paulistring(ps(1, [(0, "X")]), 0.5) + (
            QubitOperator.from_paulistring(ps(1, [(0, "Y")]), -0.5j)
        )
        assert (a_dag * a_dag).is_zero()

    def test_canonicalization_idempotent(self):
        op = QubitOperator.from_paulistring(ps(3, [(1, "Y")]), 1.5) + (
            QubitOperator.from_paulistring(ps(3, [(0, "Z"), (2, "X")]), -2j)
        )
        rebuilt = QubitOperator(3, op.terms)
        assert rebuilt == op
        assert QubitOperator(3, rebuilt.terms) == rebuilt

    def test_operator_product_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ops = []
            for _ in range(2):
                op = QubitOperator.zero(3)
                for _ in range(3):
                    x, z = int(rng.integers(8)), int(rng.integers(8))
                    coeff = complex(rng.normal(), rng.normal())
                    op = op + QubitOperator.from_paulistring(PauliString(3, x, z), coeff)
                ops.append(op)
            a, b = ops
            assert np.max(np.abs((a * b).to_dense() - a.to_dense() @ b.to_dense())) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            QubitOperator.identity(2) + QubitOperator.identity(3)

    def test_anticommuting_strings_sum_to_zero(self):
        x = QubitOperator.from_paulistring(ps(1, [(0, "X")]))
        z = QubitOperator.from_paulistring(ps(1, [(0, "Z")]))
        assert (x * z + z * x).is_zero()

    def test_hermiticity(self):
        herm = QubitOperator.from_paulistring(ps(2, [(0, "X"), (1, "Y")]), 0.5)
        assert is_hermitian(herm)
        assert not is_hermitian(1j * herm)
        assert adjoint(1j * herm) == -1j * herm


class TestDense:
    def test_z_is_diag(self):
        mat = QubitOperator.from_paulistring(ps(1, [(0, "Z")])).to_dense()
        assert np.array_equal(mat, np.diag([1.0 + 0j, -1.0 + 0j]))

    def test_xx_antidiagonal(self):
        mat = QubitOperator.from_paulistring(ps(2, [(0, "X"), (1, "X")])).to_dense()
        assert np.array_equal(mat, np.fliplr(np.eye(4, dtype=complex)))

    def test_hermitian_input_hermitian_output(self):
        op = QubitOperator.from_paulistring(ps(3, [(0, "X"), (2, "Y")]), 0.25) + (
            QubitOperator.from_paulistring(ps(3, [(1, "Z")]), -1.5)
        )
        mat = op.to_dense()
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12

    def test_cap_enforced(self):
        with pytest.raises(DenseCapError):
            QubitOperator.identity(13).to_dense()
        QubitOperator.identity(13).to_dense(cap=13)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_apply_matches_dense_product(self, data):
        n = data.draw(st.integers(1, 5))
        op = random_operator(data, n)
        vector = data.draw(st.dictionaries(st.integers(0, (1 << n) - 1), AMPS, max_size=6))
        dense_vector = np.zeros(1 << n, dtype=complex)
        dense_vector[list(vector)] = list(vector.values())
        image = op.apply(vector)
        assert all(image.values())  # exact zeros drop out
        got = np.zeros(1 << n, dtype=complex)
        got[list(image)] = list(image.values())
        assert np.allclose(got, op.to_dense() @ dense_vector, rtol=1e-12, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_apply_keeps_column_tags_apart(self, data):
        """No term acts at or above bit n, so states tagged b | c << n keep their tag c:
        one apply over every column is each column's own apply, shifted, sums unchanged."""
        n = data.draw(st.integers(1, 5))
        op = random_operator(data, n)
        column = st.dictionaries(st.integers(0, (1 << n) - 1), AMPS, max_size=4)
        columns = data.draw(st.dictionaries(st.integers(0, 9), column, max_size=4))
        tagged = {b | c << n: amp for c, col in columns.items() for b, amp in col.items()}
        images = {c: op.apply(col) for c, col in columns.items()}
        expected = {s | c << n: amp for c, image in images.items() for s, amp in image.items()}
        assert op.apply(tagged) == expected

    def test_apply_drops_cancelled_amplitudes(self):
        x = QubitOperator.from_paulistring(ps(1, [(0, "X")]))
        assert (x - QubitOperator.identity(1)).apply({0: 1, 1: 1}) == {}


class TestSerialization:
    def test_round_trip_bit_exact(self):
        op = QubitOperator.from_paulistring(ps(4, [(0, "X"), (3, "Z")]), 0.1 + 0.2j) + (
            QubitOperator.from_paulistring(ps(4, [(1, "Y")]), -1 / 3)
        )
        text = json.dumps(op.to_json_dict())
        back = QubitOperator.from_json_dict(json.loads(text))
        assert back == op
        assert json.dumps(back.to_json_dict()) == text

    def test_schema(self):
        op = QubitOperator.from_paulistring(ps(2, [(0, "X"), (1, "Y")]), 1.0)
        data = json.loads(op.to_json_text())
        assert data == {
            "n_qubits": 2,
            "terms": [{"coeff": [1.0, 0.0], "paulis": [[0, "X"], [1, "Y"]]}],
        }

    def test_term_order_is_z_then_x(self):
        op = QubitOperator.from_paulistring(ps(2, [(1, "Z")]), 1.0) + (
            QubitOperator.from_paulistring(ps(2, [(0, "X")]), 1.0)
        )
        data = op.to_json_dict()
        # X0 has z_mask 0 and sorts before Z1.
        assert data["terms"][0]["paulis"] == [[0, "X"]]
        assert data["terms"][1]["paulis"] == [[1, "Z"]]


# A test-local copy of the operator algebra that keyed each term by a whole
# phase-free PauliString: products go through PauliString.__mul__, the phase
# is split off by hand and folded in as ``0j + complex(c) * phase``.  The
# mask-keyed QubitOperator must match it term for term and byte for byte.

SIZES = [1, 61, 62, 63, 64, 65, 200]
COEFFS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, 1j, -0.25j, 0.0, -0.0, complex(-0.0, 1.0), 2 - 0j]),
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
)
SCALARS = st.one_of(st.sampled_from([0, 2, -1, 0.0, -0.0]), COEFFS)
_ONE_QUBIT = {
    ("X", "Y"): (1, "Z"), ("Y", "X"): (3, "Z"),
    ("Y", "Z"): (1, "X"), ("Z", "Y"): (3, "X"),
    ("Z", "X"): (1, "Y"), ("X", "Z"): (3, "Y"),
}


def one_qubit_product(p, r):
    if "I" in (p, r):
        return 0, r if p == "I" else p
    return (0, "I") if p == r else _ONE_QUBIT[p, r]


def letter_product(a, b):
    """``a * b`` qubit by qubit from the one-qubit table, without the mask rule."""
    exp, ops = a.phase_exp + b.phase_exp, []
    for q in range(a.n_qubits):
        e, letter = one_qubit_product(letter_at(a, q), letter_at(b, q))
        exp += e
        ops.append((q, letter))
    return PauliString.from_ops(a.n_qubits, ops, exp)


def ref_fold(pairs):
    terms = {}
    for string, coeff in pairs:
        key = PauliString(string.n_qubits, string.x_mask, string.z_mask)
        terms[key] = terms.get(key, 0j) + complex(coeff) * string.phase
    return {key: c for key, c in terms.items() if c != 0}


def ref_mul(a, b):
    return ref_fold((pa * pb, ca * cb) for pa, ca in a.items() for pb, cb in b.items())


def ref_add(a, b):
    terms = dict(a)
    for key, coeff in b.items():
        coeff = terms.get(key, 0j) + coeff
        if coeff:
            terms[key] = coeff
        else:
            del terms[key]
    return terms


def ref_json_dict(n, terms):
    """The operator's JSON data from a string-keyed term map, letter by letter."""
    rows = sorted(terms.items(), key=lambda item: (item[0].z_mask, item[0].x_mask))
    body = [
        {
            "coeff": [c.real, c.imag],
            "paulis": [[q, letter_at(s, q)] for q in range(n) if letter_at(s, q) != "I"],
        }
        for s, c in rows
    ]
    return {"n_qubits": n, "terms": body}


def ref_json(n, terms):
    return json.dumps(ref_json_dict(n, terms))


def reference_json_dict(op):
    """``op.to_json_dict()`` rebuilt without the library's serializers."""
    return ref_json_dict(op.n_qubits, op.terms)


def assert_matches(op, n, ref):
    assert op.n_qubits == n
    assert list(op.terms.items()) == list(ref.items())
    assert json.dumps(op.to_json_dict()) == ref_json(n, ref)  # keeps the sign of a zero


@st.composite
def operator_pairs(draw):
    """Two operators on one register whose strings share a small mask pool."""
    n = draw(st.sampled_from(SIZES))
    masks = st.integers(0, (1 << n) - 1)
    pool = st.sampled_from(draw(st.lists(st.tuples(masks, masks), min_size=1, max_size=3)))
    terms = st.lists(st.tuples(pool, st.integers(0, 3), COEFFS), max_size=4)
    a, b = (
        {PauliString(n, x, z, p): c for (x, z), p, c in draw(terms)} for _ in range(2)
    )
    return n, a, b


class TestMaskKeyedReference:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(SIZES).flatmap(lambda n: st.tuples(pauli_strings(n), pauli_strings(n))))
    def test_string_product_matches_letter_table(self, pair):
        a, b = pair
        assert a * b == letter_product(a, b)

    @settings(max_examples=150, deadline=None)
    @given(operator_pairs())
    def test_product_and_sum(self, case):
        n, a, b = case
        op_a, op_b = QubitOperator(n, a), QubitOperator(n, b)
        assert_matches(op_a, n, ref_fold(a.items()))
        assert_matches(op_a * op_b, n, ref_mul(ref_fold(a.items()), ref_fold(b.items())))
        assert_matches(op_a + op_b, n, ref_add(ref_fold(a.items()), ref_fold(b.items())))

    @settings(max_examples=100, deadline=None)
    @given(operator_pairs(), SCALARS)
    def test_scalar(self, case, scalar):
        n, a, _ = case
        op, ref = QubitOperator(n, a), ref_fold(a.items())
        scaled = {key: scalar * c for key, c in ref.items() if scalar * c != 0}
        assert_matches(scalar * op, n, scaled)
        assert_matches(op * scalar, n, scaled)


# The writer must return exactly the text ``json.dumps(..., sort_keys=True,
# indent=1)`` gives the operator's data nested ``depth`` levels deep.  The
# reference nests the data in single-key objects and lets ``json`` format all
# of it; the writer's text is wrapped in the same envelope by hand.

PARTS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -0.5, 1 / 3, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310]
    ),
    st.floats(),
)


def nested_reference(data, depth):
    for _ in range(depth):
        data = {"op": data}
    return json.dumps(data, sort_keys=True, indent=1)


def nested_text(text, depth):
    for level in reversed(range(depth)):
        text = "{\n" + " " * (level + 1) + '"op": ' + text + "\n" + " " * level + "}"
    return text


def raw_operator(n, terms):
    """An operator holding exactly ``terms``: no folding, pruning or phase."""
    op = QubitOperator(n)
    op._terms = dict(terms)
    return op


@st.composite
def raw_operators(draw):
    n = draw(st.sampled_from([0, 1, 63, 64, 65, 200, 800, 1520]))
    masks = st.integers(0, (1 << n) - 1)
    coeffs = st.builds(complex, PARTS, PARTS)
    return raw_operator(n, draw(st.dictionaries(st.tuples(masks, masks), coeffs, max_size=6)))


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(raw_operators(), st.integers(0, 3))
    def test_matches_json_dumps_at_depth(self, op, depth):
        expected = nested_reference(reference_json_dict(op), depth)
        assert nested_text(op.to_json_text(depth), depth) == expected

    @pytest.mark.parametrize("depth", range(4))
    @pytest.mark.parametrize("n", [0, 1, 64, 200])
    @pytest.mark.parametrize(
        "terms",
        [{}, {(0, 0): 1 + 0j}, {(0, 0): complex(-0.0, math.nan)}],
        ids=["empty", "identity", "identity-nan"],
    )
    def test_empty_and_identity(self, terms, n, depth):
        op = raw_operator(n, terms)
        expected = nested_reference(reference_json_dict(op), depth)
        assert nested_text(op.to_json_text(depth), depth) == expected

    @pytest.mark.parametrize("depth", [1, 2])  # the operator file, the stabilizer sidecar
    @pytest.mark.parametrize("n", [800, 1520])  # the 20x20 forest and two-spin LSFS registers
    def test_letters_across_int_digits(self, n, depth):
        # CPython stores ints in 30-bit digits: qubits 29 | 30 and 59 | 60 straddle
        # the first two digit boundaries, and n - 1 is the register's top bit.
        qubits, letters = (29, 30, 59, 60, n - 1), [(1, 0), (1, 1), (0, 1)]  # X, Y, Z
        terms = {(1 << n - 1, 0): -1.5 + 0j}
        for shift in range(3):
            x = z = 0
            for i, q in enumerate(qubits):
                xb, zb = letters[(i + shift) % 3]
                x, z = x | xb << q, z | zb << q
            terms[x, z] = complex(shift + 0.25, -shift)
        op = raw_operator(n, terms)
        expected = nested_reference(op.to_json_dict(), depth)
        assert nested_text(op.to_json_text(depth), depth) == expected

    def test_nonfinite_and_signed_zero_spellings(self):
        op = raw_operator(2, {(1, 2): complex(-0.0, math.inf), (2, 0): complex(math.nan, -math.inf)})
        text = op.to_json_text()
        for spelling in ("-0.0", "Infinity", "NaN", "-Infinity"):
            assert f"\n    {spelling}" in text
        assert text == json.dumps(op.to_json_dict(), sort_keys=True, indent=1)
