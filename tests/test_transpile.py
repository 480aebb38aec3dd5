"""The transpile path against naive references, and guards on its work counts.

The references rebuild every Majorana with ``PauliString.from_ops`` from
the forest's sets by the paper's definitions (``test_fenwick``'s
``reference_sets``, not the forest's masks), multiply operators string by
string with ``PauliString.__mul__`` (not the term-map kernel) and sum
every Hamiltonian by chained addition, the way the encoders first did it.
The encoders must match them exactly: same coefficients, same term order,
same JSON text.  The two-spin LSFS operator is also compared, key by key,
with the embed-and-add assembly it replaced.
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

from fermap import analysis, cli, encodings, lsfs, models, pauli, verify
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


def naive_encode(spec, model):
    n = spec.n_modes
    total = QubitOperator.zero(n)
    for coeff, monomial in model.terms:
        acc = QubitOperator.identity(n)
        for index in monomial:
            acc = times(acc, naive_majorana(spec, index >> 1, "d" if index & 1 else "c"))
        total = plus(total, coeff * acc)
    return total


def embedded(op, n_total, offset):
    """``op`` on qubits [offset, offset + n) of an ``n_total``-qubit register."""
    assert 0 <= offset and offset + op.n_qubits <= n_total
    out = QubitOperator(n_total)
    out._terms = {(x << offset, z << offset): c for (x, z), c in op._terms.items()}
    return out


def naive_single_spin(layout, t, eps, delta):
    """Term by term in ``hubbard_terms``' order: hops per lattice edge, eps per site, penalty."""
    total = QubitOperator.zero(layout.n_edges)
    for u, v, _ in LatticeSpec.rectangle(layout.w, layout.h, "row_major").edges():
        total = plus(total, (-t) * lsfs.hopping_term(layout, u, v))
    for k in range(layout.n_vertices):
        total = plus(total, eps * lsfs.number_term(layout, k))
    for stab in lsfs.stabilizers(layout):
        total = plus(total, (-delta / 2.0) * stab)
    return total


def naive_hubbard_lsfs(w, h, t, u, eps, delta):
    """Term by term in ``models.hubbard``'s order: each lattice edge's hop in
    block 0 then block 1; per site U, then eps for each spin; then the
    penalty of block 0 and of block 1."""
    layout = lsfs.EdgeLayout(w, h)
    n_edges = layout.n_edges

    def block(op, spin):
        return embedded(op, 2 * n_edges, spin * n_edges)

    total = QubitOperator.zero(2 * n_edges)
    for i, j, _ in LatticeSpec.rectangle(w, h, "row_major").edges():
        for spin in (0, 1):
            total = plus(total, (-t) * block(lsfs.hopping_term(layout, i, j), spin))
    for k in range(layout.n_vertices):
        n_dn, n_up = (block(lsfs.number_term(layout, k), spin) for spin in (0, 1))
        total = plus(total, u * times(n_up, n_dn))
        for n_k in (n_dn, n_up):
            total = plus(total, eps * n_k)
    for spin in (0, 1):
        for stab in lsfs.stabilizers(layout):
            total = plus(total, (-delta / 2.0) * block(stab, spin))
    return total


def embed_and_add_hubbard_lsfs(w, h, t, u, eps, delta):
    """The two-spin operator as LSFS first assembled it: one spin's penalized
    Hamiltonian embedded into both blocks, then U added site by site."""
    layout = lsfs.EdgeLayout(w, h)
    n_edges = layout.n_edges
    part = naive_single_spin(layout, t, eps, delta)
    total = QubitOperator.zero(2 * n_edges)
    for offset in (0, n_edges):
        total = plus(total, embedded(part, 2 * n_edges, offset))
    for k in range(layout.n_vertices):
        n_dn = embedded(lsfs.number_term(layout, k), 2 * n_edges, 0)
        n_up = embedded(lsfs.number_term(layout, k), 2 * n_edges, n_edges)
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

    @pytest.mark.parametrize("eps", [0.0, EPS])
    @pytest.mark.parametrize(
        "w,h", [(w, h) for w in range(2, 6) for h in range(2, 5)] + [(2, 1), (3, 1), (1, 4)]
    )
    def test_hubbard_lsfs_matches_embed_and_add(self, w, h, eps):
        """Exact at eps = 0; at eps != 0 the identity sums in another order."""
        op = lsfs.hubbard_lsfs(w, h, T, U, eps, DELTA)
        ref = embed_and_add_hubbard_lsfs(w, h, T, U, eps, DELTA)
        assert op.n_qubits == ref.n_qubits
        assert sorted(op._terms) == sorted(ref._terms)
        for key, coeff in ref._terms.items():
            if eps == 0.0:
                assert op._terms[key] == coeff
            else:
                assert abs(op._terms[key] - coeff) <= 1e-12 * abs(coeff)

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
        """Monomials of 0-4 Majoranas: lone c_j or d_j, repeated indices, signed-zero
        coefficients."""
        n = data.draw(st.integers(1, 5))
        spec = random_forest_spec(n, random.Random(data.draw(st.integers(0, 99))))
        parts = st.sampled_from([0.0, -0.0, 0.5, -1.25]) | st.floats(-4, 4)
        coeffs = st.builds(complex, parts, parts) | parts
        monomials = st.lists(st.integers(0, 2 * n - 1), max_size=4).map(tuple)
        terms = st.tuples(coeffs, monomials)
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

    @pytest.mark.parametrize("spin, hubbards", [("both", 1), ("single", 0)])
    def test_lsfs_encode_is_one_model_and_one_encode(self, spin, hubbards, monkeypatch, tmp_path):
        # One model from the shared builder, one encode_model call and one
        # pair table: no per-site U encodes and no per-block copies.
        calls, builds = Counter(), Counter()
        modules = (models, encodings, analysis, cli, lsfs, verify)
        owners = {"hubbard": models, "hubbard_terms": models, "encode_model": encodings}
        for name, owner in owners.items():
            original = getattr(owner, name)

            def wrapper(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for module in modules:  # every name the function is bound to
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)
        build = lsfs.LsfsSpec.__dict__["pairs"].func

        def counted_build(spec):
            builds[spec] += 1
            return build(spec)

        table = functools.cached_property(counted_build)
        table.__set_name__(lsfs.LsfsSpec, "pairs")
        monkeypatch.setattr(lsfs.LsfsSpec, "pairs", table)
        u = "1" if spin == "both" else "0"
        argv = ["encode", "--w", "4", "--h", "3", "--encoding", "lsfs", "--spin", spin,
                "--u", u, "--eps", "0.3", "--out", str(tmp_path / "op.json")]
        assert cli.main(argv) == 0
        assert calls == Counter(hubbard=hubbards, hubbard_terms=1, encode_model=1)
        assert sum(builds.values()) == 1

    def test_hop_is_two_string_products(self, monkeypatch):
        # A hop is two monomials c_i d_j and c_j d_i, each one string: a forest
        # folds its two table entries from the identity, LSFS its one pair entry.
        products = Counter()
        mul_masks = pauli._mul_masks

        def counted(*args):
            products["n"] += 1
            return mul_masks(*args)

        for module in (encodings, lsfs):
            monkeypatch.setattr(module, "_mul_masks", counted)
        layout = lsfs.EdgeLayout(4, 3)
        specs = [EncodingSpec.jordan_wigner(12), EncodingSpec.bravyi_kitaev(12)]
        specs += [random_forest_spec(12, random.Random(7)), lsfs.LsfsSpec(layout)]
        for spec in specs:
            is_lsfs = isinstance(spec, lsfs.LsfsSpec)
            assert spec.pairs if is_lsfs else spec.majoranas  # tables built before counting
            for i, j in layout.edges() if is_lsfs else [(0, 11), (3, 4), (5, 9)]:
                products.clear()
                encode_model(spec, hopping_pair(12, i, j, 0.7))
                assert products["n"] == (2 if is_lsfs else 4)
