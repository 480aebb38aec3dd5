"""The transpile path against naive references, and guards on its work counts.

The references rebuild every Majorana with ``PauliString.from_ops`` from
the forest's sets by the paper's definitions (``test_fenwick``'s
``reference_sets``, not the forest's masks), multiply operators string by
string with ``PauliString.__mul__`` (not the term-map kernel) and sum
every Hamiltonian by chained addition, the way the encoders first did it.
The encoders must match them exactly: same coefficients, same term order,
same JSON text.
"""

import functools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_encodings import lowering, number_op, raising
from test_fenwick import reference_sets

from fermap import encodings, lsfs, pauli
from fermap.analysis import model_encoding
from fermap.encodings import EncodingSpec, encode_model
from fermap.fenwick import FenwickForest
from fermap.models import FermionOperator, LatticeSpec, hopping_pair, hubbard, hubbard_terms
from fermap.pauli import PauliString, QubitOperator
from fermap.verify import random_forest_spec

T, U, EPS, DELTA = 0.73, 4.21, 0.37, 2.9


def plus(a, b):
    """``a + b`` as ``QubitOperator.__add__`` computed it: copy, add, prune."""
    assert a.n_qubits == b.n_qubits
    terms = a.terms
    for ps, coeff in b.terms.items():
        terms[ps] = terms.get(ps, 0j) + coeff
    out = QubitOperator(a.n_qubits)
    out._terms = {(ps.x_mask, ps.z_mask): c for ps, c in terms.items() if c != 0}
    return out


def times(a, b):
    """``a * b`` string by string, each product's phase folded in by ``_add_term``."""
    assert a.n_qubits == b.n_qubits
    out = QubitOperator(a.n_qubits)
    for pa, ca in a.terms.items():
        for pb, cb in b.terms.items():
            out._add_term(pa * pb, ca * cb)
    out._prune()
    return out


# The forest's sets by the paper's definitions, not by its masks.
reference = functools.cache(reference_sets)


def naive_majorana(spec, j, flavor):
    children, ancestors, _, parity = reference(spec.forest)
    if flavor == "c":
        ops = [(q, "Z") for q in parity[j]] + [(j, "X")]
    else:
        zs = set(parity[j]) - set(children[j])
        ops = [(q, "Z") for q in sorted(zs)] + [(j, "Y")]
    ops.extend((q, "X") for q in ancestors[j])
    return QubitOperator.from_paulistring(PauliString.from_ops(spec.n_modes, ops))


def naive_factor(spec, mode, flavor):
    n = spec.n_modes
    if flavor in ("c", "d"):
        return naive_majorana(spec, mode, flavor)
    if flavor == "n":
        children = reference(spec.forest)[0]
        zs = [(q, "Z") for q in children[mode]] + [(mode, "Z")]
        z_string = QubitOperator.from_paulistring(PauliString.from_ops(n, zs))
        return plus(QubitOperator.identity(n, 0.5), (-0.5) * z_string)
    sign = 0.5j if flavor == "-" else -0.5j
    c, d = naive_majorana(spec, mode, "c"), naive_majorana(spec, mode, "d")
    return plus(0.5 * c, sign * d)


def naive_encode(spec, model):
    n = spec.n_modes
    total = QubitOperator.zero(n)
    for coeff, factors in model.terms:
        acc = QubitOperator.identity(n)
        for mode, flavor in factors:
            acc = times(acc, naive_factor(spec, mode, flavor))
        total = plus(total, coeff * acc)
    return total


def naive_single_spin(layout, t, eps, delta):
    total = QubitOperator.zero(layout.n_edges)
    for u, v in layout.edges():
        total = plus(total, (-t) * lsfs.hopping_term(layout, u, v))
    for k in range(layout.n_vertices):
        total = plus(total, eps * lsfs.number_term(layout, k))
    for stab in lsfs.stabilizers(layout):
        total = plus(total, (-delta / 2.0) * stab)
    return total


def naive_hubbard_lsfs(w, h, t, u, eps, delta):
    layout = lsfs.EdgeLayout(w, h)
    n_edges = layout.n_edges
    total = QubitOperator.zero(2 * n_edges)
    for offset in (0, n_edges):
        part = naive_single_spin(layout, t, eps, delta)
        total = plus(total, part.embedded(2 * n_edges, offset))
    for k in range(layout.n_vertices):
        n_dn = lsfs.number_term(layout, k).embedded(2 * n_edges, 0)
        n_up = lsfs.number_term(layout, k).embedded(2 * n_edges, n_edges)
        total = plus(total, u * times(n_dn, n_up))
    return total


def assert_identical(op, ref):
    assert op.n_qubits == ref.n_qubits
    assert list(op.terms.items()) == list(ref.terms.items())
    assert op.to_json_text() == ref.to_json_text()


def specs(lattice):
    rng = random.Random(lattice.n_sites)
    yield model_encoding("jw", lattice)
    yield model_encoding("bk", lattice)
    yield model_encoding("sbk", lattice)
    for _ in range(3):
        yield random_forest_spec(lattice.n_modes, rng)


class TestExactness:
    @pytest.mark.parametrize("w,h", [(3, 3), (4, 3)])
    def test_encode_model(self, w, h):
        lattice = LatticeSpec.rectangle(w, h)
        model = hubbard(lattice, T, U, EPS)
        for spec in specs(lattice):
            assert_identical(encode_model(spec, model), naive_encode(spec, model))

    @pytest.mark.parametrize("w,h", [(3, 3), (4, 3)])
    def test_single_spin_hamiltonian(self, w, h):
        layout = lsfs.EdgeLayout(w, h)
        assert_identical(
            lsfs.single_spin_hamiltonian(layout, T, EPS, DELTA),
            naive_single_spin(layout, T, EPS, DELTA),
        )

    @pytest.mark.parametrize("w,h", [(3, 3), (4, 3)])
    def test_hubbard_lsfs(self, w, h):
        assert_identical(
            lsfs.hubbard_lsfs(w, h, T, U, EPS, DELTA),
            naive_hubbard_lsfs(w, h, T, U, EPS, DELTA),
        )

    def test_majorana_table_matches_from_ops(self):
        spec = random_forest_spec(17, random.Random(5))
        for j in range(17):
            assert encodings.majorana_c(spec, j) == naive_majorana(spec, j, "c")
            assert encodings.majorana_d(spec, j) == naive_majorana(spec, j, "d")

    def test_ladder_factors_match_operator_forms(self):
        """Each factor's coefficients, signed zeros included, as ``_add_term`` folds them."""

        def parts(op):
            return [
                (key, math.copysign(1.0, c.real), c.real, math.copysign(1.0, c.imag), c.imag)
                for key, c in op._terms.items()
            ]

        n = 11
        for spec in (EncodingSpec.jordan_wigner(n), random_forest_spec(n, random.Random(3))):
            children = reference(spec.forest)[0]
            for j in range(n):
                (c,) = naive_majorana(spec, j, "c").terms
                (d,) = naive_majorana(spec, j, "d").terms
                z = PauliString.from_ops(n, [(q, "Z") for q in (*children[j], j)])
                forms = {
                    lowering: QubitOperator(n, {c: 0.5, d: 0.5j}),
                    raising: QubitOperator(n, {c: 0.5, d: -0.5j}),
                    number_op: QubitOperator(n, {PauliString.identity(n): 0.5, z: -0.5}),
                }
                for build, form in forms.items():
                    assert parts(build(spec, j)) == parts(form)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_encode_model_edge_terms(self, data):
        """Terms of 0-3 factors: lone n_j or c_j, repeated modes, signed-zero coefficients."""
        n = data.draw(st.integers(1, 5))
        spec = random_forest_spec(n, random.Random(data.draw(st.integers(0, 99))))
        parts = st.sampled_from([0.0, -0.0, 0.5, -1.25]) | st.floats(-4, 4)
        coeffs = st.builds(complex, parts, parts) | parts
        factors = st.tuples(st.integers(0, n - 1), st.sampled_from(["+", "-", "n", "c", "d"]))
        terms = st.tuples(coeffs, st.lists(factors, max_size=3).map(tuple))
        model = FermionOperator(n, tuple(data.draw(st.lists(terms, max_size=6))))
        assert_identical(encode_model(spec, model), naive_encode(spec, model))

    def test_hubbard_concatenates_terms(self):
        lattice = LatticeSpec.rectangle(3, 2)
        expected = FermionOperator.zero(lattice.n_modes)
        for _, term in hubbard_terms(lattice, T, U, EPS):
            expected = expected + term
        assert hubbard(lattice, T, U, EPS) == expected


class TestWorkCount:
    """Deterministic call counts that keep the quadratic paths out."""

    def test_jw_8x8(self, monkeypatch):
        calls = Counter()
        builds = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            FermionOperator, "__add__", counting("fermion", FermionOperator.__add__)
        )
        for name in ("__add__", "__mul__", "__rmul__"):
            monkeypatch.setattr(
                QubitOperator, name, counting(name, getattr(QubitOperator, name))
            )
        build = EncodingSpec.__dict__["majoranas"].func

        def counted_build(spec):
            builds[id(spec)] += 1
            return build(spec)

        table = functools.cached_property(counted_build)
        table.__set_name__(EncodingSpec, "majoranas")
        monkeypatch.setattr(EncodingSpec, "majoranas", table)
        queries = ("parity_set", "ancestors", "children", "lesser_cousins")
        for name in queries:
            monkeypatch.setattr(
                FenwickForest, name, counting(name, getattr(FenwickForest, name))
            )

        lattice = LatticeSpec.rectangle(8, 8)
        model = hubbard(lattice, T, U, EPS)
        assert calls["fermion"] == 0
        spec = EncodingSpec.jordan_wigner(lattice.n_modes)
        op = encode_model(spec, model)
        # Factors are multiplied and scaled as term maps: no operator
        # sum, product or scaling per factor or per term.
        assert calls["__add__"] == calls["__mul__"] == calls["__rmul__"] == 0
        # Majorana strings are ORed from the forest's masks, so no set
        # query (a sorted tuple per call) runs on the encode path.
        assert all(calls[name] == 0 for name in queries)
        # One table per spec, with a (c_j, d_j) pair for every mode.
        assert builds == {id(spec): 1}
        first = spec.majoranas
        assert len(first) == lattice.n_modes
        # A second pass over the same spec reuses the table it built.
        encode_model(spec, model)
        assert builds == {id(spec): 1}
        assert spec.majoranas is first
        assert len(op) > 0

    def test_hop_is_two_string_products(self, monkeypatch):
        # A hop is two Majorana pairs, each one table product; the ladder
        # form took 8, and 4 of them cancelled.  LSFS keeps each pair's
        # product in its table, so its hops multiply nothing.
        products = Counter()
        mul_masks = pauli._mul_masks

        def counted(*args):
            products["n"] += 1
            return mul_masks(*args)

        monkeypatch.setattr(pauli, "_mul_masks", counted)
        layout = lsfs.EdgeLayout(4, 3)
        specs = [EncodingSpec.jordan_wigner(12), EncodingSpec.bravyi_kitaev(12)]
        specs += [random_forest_spec(12, random.Random(7)), lsfs.LsfsSpec(layout)]
        for spec in specs:
            hops = layout.edges() if isinstance(spec, lsfs.LsfsSpec) else [(0, 11), (3, 4), (5, 9)]
            for i, j in hops:
                products.clear()
                encode_model(spec, hopping_pair(12, i, j, 0.7))
                assert products["n"] == (0 if isinstance(spec, lsfs.LsfsSpec) else 2)
