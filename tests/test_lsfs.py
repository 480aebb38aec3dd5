"""Edge layout, loop generators, stabilizers, and the 2D Hubbard mapping."""

import numpy as np
import pytest
from test_pauli import commutes, is_hermitian, weight
from test_transpile import embedded

from fermap.encodings import encode_model
from fermap.lsfs import (
    EdgeLayout,
    LsfsSpec,
    a_op,
    b_op,
    codespace_projector,
    default_penalty,
    hopping_term,
    hubbard_lsfs,
    number_term,
    single_spin_hamiltonian,
    stabilizers,
)
from fermap.models import FermionOperator, LatticeSpec, fock_matrix, hubbard, number_product
from fermap.pauli import DenseCapError, PauliString, QubitOperator


def string_of(op):
    ((ps, coeff),) = op.sorted_terms()
    return ps, coeff


def pauli(layout, pairs, coeff=1.0):
    return QubitOperator.from_paulistring(
        PauliString.from_ops(layout.n_edges, pairs), coeff
    )


def loop_product(layout, quad):
    """A(ab) A(bc) A(cd) A(da) multiplied here as strings from the generator
    masks, returned as the (x, z, phase_exp) of a loop table entry."""
    product = PauliString.identity(layout.n_edges)
    for j, k in zip(quad, [*quad[1:], quad[0]]):
        x, z = layout.generators[0][layout.edge_index(j, k)]
        product = product * PauliString(layout.n_edges, x, z)
    return product.x_mask, product.z_mask, product.phase_exp


def table_loop(layout, quad):
    return layout.loops[layout.plaquettes().index(quad)]


def restricted_spectrum(matrix, projector):
    evals, evecs = np.linalg.eigh(projector)
    basis = evecs[:, evals > 0.5]
    return np.sort(np.linalg.eigvalsh(basis.conj().T @ matrix @ basis))


def closed_form_edge_index(w, h, u, v):
    """Row-major closed form of the edge numbering, None on non-edges.

    Horizontal edge (r, c)-(r, c+1) is qubit r(w-1) + c; vertical edge
    (r, c)-(r+1, c) is qubit h(w-1) + rw + c, after every horizontal edge.
    """
    (ra, ca), (rb, cb) = divmod(min(u, v), w), divmod(max(u, v), w)
    if ra == rb and cb == ca + 1:
        return ra * (w - 1) + ca
    if ca == cb and rb == ra + 1:
        return h * (w - 1) + ra * w + ca
    return None


def directional_edge(layout, k, direction):
    """Edge qubit in the given direction from vertex k, None off-lattice."""
    r, c = divmod(k, layout.w)
    if direction == "left":
        return layout.edge_index(k - 1, k) if c > 0 else None
    if direction == "right":
        return layout.edge_index(k, k + 1) if c + 1 < layout.w else None
    if direction == "up":
        return layout.edge_index(k - layout.w, k) if r > 0 else None
    if direction == "down":
        return layout.edge_index(k, k + layout.w) if r + 1 < layout.h else None
    raise ValueError(f"unknown direction {direction!r}")


def a_op_directional(layout, j, k):
    """The 2D specialized form of ``a_op`` (boundary factors ignored).

    Vertical edges: X on the edge, Z on the left/up/right edges of the
    upper endpoint.  Horizontal edges: X on the edge, Z on the up edges
    of both endpoints and the left edge of the left endpoint.
    """
    top_left, other = min(j, k), max(j, k)
    ops = {layout.edge_index(j, k): "X"}
    if other - top_left == 1:  # horizontal
        dirs = [(top_left, "up"), (other, "up"), (top_left, "left")]
    else:  # vertical
        dirs = [(top_left, "left"), (top_left, "up"), (top_left, "right")]
    for vertex, direction in dirs:
        idx = directional_edge(layout, vertex, direction)
        if idx is not None:
            ops[idx] = "Z"
    return pauli(layout, sorted(ops.items()), 1.0 if j > k else -1.0)


class TestLayout:
    def test_qubit_count(self):
        for w, h in [(2, 2), (3, 3), (4, 4), (2, 5), (6, 3)]:
            lay = EdgeLayout(w, h)
            assert lay.n_edges == h * (w - 1) + w * (h - 1)
        # full two-spin register size
        w, h = 4, 4
        assert 2 * EdgeLayout(w, h).n_edges == 4 * w * h - 2 * w - 2 * h

    def test_edge_indexing_row_major(self):
        lay = EdgeLayout(4, 4)
        assert lay.edge_index(0, 1) == 0
        assert lay.edge_index(5, 6) == 4
        assert lay.edge_index(0, 4) == 12  # after the 4 * 3 horizontal edges
        assert [lay.edge_index(u, v) for u, v in lay.edges()] == list(
            range(lay.n_edges)
        )

    @pytest.mark.parametrize(
        "w,h", [(2, 5), (5, 2), (3, 4), (4, 3), (6, 3), (1, 4), (4, 1), (2, 1)]
    )
    def test_edge_table_matches_closed_form(self, w, h):
        lay = EdgeLayout(w, h)
        n = lay.n_vertices
        expected = {}
        for u in range(n):
            for v in range(n):
                index = closed_form_edge_index(w, h, u, v)
                if index is None:
                    with pytest.raises(ValueError):
                        lay.edge_index(u, v)
                else:
                    assert lay.edge_index(u, v) == index
                    expected[index] = (min(u, v), max(u, v))
        assert lay.edges() == [expected[q] for q in range(lay.n_edges)]
        assert sum(len(nbrs) for nbrs in lay.incidence) == 2 * lay.n_edges

    @pytest.mark.parametrize("u,v", [(-1, 0), (0, -3), (6, 5), (5, 6), (0, 99)])
    def test_out_of_range_vertex_raises_index_error(self, u, v):
        lay = EdgeLayout(3, 2)
        with pytest.raises(IndexError):
            lay.edge_index(u, v)
        with pytest.raises(IndexError):
            a_op(lay, u, v)

    @pytest.mark.parametrize("k", [-1, -6, 6])
    def test_b_op_out_of_range_raises_index_error(self, k):
        with pytest.raises(IndexError):
            b_op(EdgeLayout(3, 2), k)

    def test_non_edge_rejected(self):
        lay = EdgeLayout(3, 3)
        for pair in [(0, 2), (0, 4), (2, 3), (0, 0)]:
            with pytest.raises(ValueError):
                lay.edge_index(*pair)

    def test_directional_edges(self):
        lay = EdgeLayout(3, 3)
        assert directional_edge(lay, 4, "left") == lay.edge_index(3, 4)
        assert directional_edge(lay, 4, "up") == lay.edge_index(1, 4)
        assert directional_edge(lay, 0, "left") is None
        assert directional_edge(lay, 0, "up") is None
        assert directional_edge(lay, 8, "down") is None

    def test_plaquette_census(self):
        assert len(EdgeLayout(4, 4).plaquettes()) == 9
        assert len(EdgeLayout(2, 2).plaquettes()) == 1
        assert EdgeLayout(5, 1).plaquettes() == []


class TestGenerators:
    def test_b_weights_by_degree(self):
        lay = EdgeLayout(3, 3)
        ps, _ = string_of(b_op(lay, 4))
        assert weight(ps) == 4  # interior
        ps, _ = string_of(b_op(lay, 0))
        assert weight(ps) == 2  # corner
        ps, _ = string_of(b_op(lay, 1))
        assert weight(ps) == 3  # boundary

    def test_product_of_all_b_is_identity(self):
        for w, h in [(2, 2), (3, 3), (4, 3)]:
            lay = EdgeLayout(w, h)
            prod = QubitOperator.identity(lay.n_edges)
            for k in range(lay.n_vertices):
                prod = prod * b_op(lay, k)
            assert prod == QubitOperator.identity(lay.n_edges)

    def test_a_antisymmetric_and_squares_to_identity(self):
        lay = EdgeLayout(4, 4)
        ident = QubitOperator.identity(lay.n_edges)
        for u, v in lay.edges():
            gen = a_op(lay, u, v)
            assert gen == -1.0 * a_op(lay, v, u)
            assert gen * gen == ident

    def test_general_formula_matches_2d_prescription(self):
        for w, h in [(2, 2), (3, 3), (4, 4), (3, 5)]:
            lay = EdgeLayout(w, h)
            for u, v in lay.edges():
                assert a_op(lay, u, v) == a_op_directional(lay, u, v)

    def test_figure_generator_a_9_10(self):
        lay = EdgeLayout(4, 4)
        ps, coeff = string_of(a_op(lay, 9, 10))
        assert dict(ps.ops()) == {
            lay.edge_index(9, 10): "X",
            lay.edge_index(5, 9): "Z",
            lay.edge_index(8, 9): "Z",
            lay.edge_index(6, 10): "Z",
        }
        assert coeff == -1.0  # epsilon for ascending arguments

    def test_figure_generator_a_6_10(self):
        lay = EdgeLayout(4, 4)
        ps, _ = string_of(a_op(lay, 6, 10))
        assert dict(ps.ops()) == {
            lay.edge_index(6, 10): "X",
            lay.edge_index(5, 6): "Z",
            lay.edge_index(2, 6): "Z",
            lay.edge_index(6, 7): "Z",
        }

    def test_top_row_edge_is_shorter(self):
        lay = EdgeLayout(4, 4)
        ps, _ = string_of(a_op(lay, 1, 2))
        assert weight(ps) < weight(string_of(a_op(lay, 9, 10))[0])

    @pytest.mark.parametrize("w,h", [(2, 1), (3, 3), (5, 2)])
    def test_generator_table_is_built_once_and_read(self, w, h):
        lay = EdgeLayout(w, h)
        a_masks, b_masks = lay.generators
        assert lay.generators is lay.generators
        assert len(a_masks) == lay.n_edges and len(b_masks) == lay.n_vertices
        for qubit, (u, v) in enumerate(lay.edges()):
            x, z = a_masks[qubit]  # a phase-free (x, z) pair, X on its own qubit only
            assert x == 1 << qubit
            string = PauliString(lay.n_edges, x, z)
            assert a_op(lay, u, v) == QubitOperator.from_paulistring(string, -1.0)
            assert a_op(lay, v, u) == QubitOperator.from_paulistring(string, 1.0)
        for k, z in enumerate(b_masks):
            assert b_op(lay, k) == QubitOperator.from_paulistring(PauliString(lay.n_edges, 0, z))

    def test_non_edge_pair_rejected(self):
        with pytest.raises(ValueError):
            a_op(EdgeLayout(3, 3), 0, 4)

    @pytest.mark.parametrize("w,h", [(3, 3), (4, 4)])
    def test_pairwise_algebra(self, w, h):
        lay = EdgeLayout(w, h)
        edge_strings = {e: string_of(a_op(lay, *e))[0] for e in lay.edges()}
        b_strings = {k: string_of(b_op(lay, k))[0] for k in range(lay.n_vertices)}
        for e1, s1 in edge_strings.items():
            for e2, s2 in edge_strings.items():
                shared = len(set(e1) & set(e2))
                assert commutes(s1, s2) == (shared != 1)
            for l, bs in b_strings.items():
                assert commutes(s1, bs) == (l not in e1)
        for b1 in b_strings.values():
            for b2 in b_strings.values():
                assert commutes(b1, b2)


class TestStabilizers:
    def test_count_4x4(self):
        assert len(stabilizers(EdgeLayout(4, 4))) == 9

    def test_figure_stabilizer(self):
        lay = EdgeLayout(4, 4)
        ps = PauliString(lay.n_edges, *table_loop(lay, (5, 6, 10, 9)))
        assert ps.phase == 1.0
        assert dict(ps.ops()) == {
            lay.edge_index(5, 6): "X",
            lay.edge_index(9, 10): "X",
            lay.edge_index(5, 9): "Y",
            lay.edge_index(6, 10): "Y",
            lay.edge_index(6, 7): "Z",
            lay.edge_index(8, 9): "Z",
        }
        assert weight(ps) == 6

    def test_orientation_and_start_invariance(self):
        lay = EdgeLayout(4, 4)
        base = table_loop(lay, (5, 6, 10, 9))
        for quad in [
            (5, 6, 10, 9),
            (6, 10, 9, 5),
            (10, 9, 5, 6),
            (9, 5, 6, 10),
            (5, 9, 10, 6),
            (9, 10, 6, 5),
            (10, 6, 5, 9),
            (6, 5, 9, 10),
        ]:
            assert loop_product(lay, quad) == base

    def test_epsilon_gauge_flip_leaves_stabilizer(self):
        # Flip every generator's sign: four factors, so the loop is blind to it.
        lay = EdgeLayout(3, 3)
        a, b, c, d = (0, 1, 4, 3)
        flipped = (
            (-1.0 * a_op(lay, a, b))
            * (-1.0 * a_op(lay, b, c))
            * (-1.0 * a_op(lay, c, d))
            * (-1.0 * a_op(lay, d, a))
        )
        product = PauliString(lay.n_edges, *loop_product(lay, (a, b, c, d)))
        assert flipped == QubitOperator.from_paulistring(product)
        loop = PauliString(lay.n_edges, *table_loop(lay, (a, b, c, d)))
        assert flipped == QubitOperator.from_paulistring(loop)

    def test_squares_to_identity_and_hermitian(self):
        lay = EdgeLayout(4, 3)
        for stab in stabilizers(lay):
            assert stab * stab == QubitOperator.identity(lay.n_edges)
            assert is_hermitian(stab)

    def test_commutes_with_generators_and_each_other(self):
        lay = EdgeLayout(3, 3)
        stabs = stabilizers(lay)
        gens = [a_op(lay, u, v) for u, v in lay.edges()]
        gens += [b_op(lay, k) for k in range(lay.n_vertices)]
        for stab in stabs:
            s_ps, _ = string_of(stab)
            for gen in gens:
                g_ps, _ = string_of(gen)
                assert commutes(s_ps, g_ps)
            for other in stabs:
                assert commutes(s_ps, string_of(other)[0])

    @pytest.mark.parametrize("w,h", [(2, 5), (5, 2), (4, 3)])
    def test_every_plaquette_accepted_in_any_cyclic_order(self, w, h):
        lay = EdgeLayout(w, h)
        for (a, b, c, d), base in zip(lay.plaquettes(), lay.loops):
            assert loop_product(lay, (a, b, c, d)) == base
            assert loop_product(lay, (d, c, b, a)) == base
            assert loop_product(lay, [b, c, d, a]) == base


class TestHopping:
    def test_horizontal_expansion(self):
        # Interior horizontal edge: (1/2) Y_e (Z_k^down Z_{k+1}^up
        # - Z_k^up Z_k^left Z_{k+1}^right Z_{k+1}^down).
        lay = EdgeLayout(4, 4)
        k, kp = 5, 6
        e = lay.edge_index(k, kp)
        short = pauli(
            lay,
            [
                (e, "Y"),
                (directional_edge(lay, k, "down"), "Z"),
                (directional_edge(lay, kp, "up"), "Z"),
            ],
            0.5,
        )
        long = pauli(
            lay,
            [
                (e, "Y"),
                (directional_edge(lay, k, "up"), "Z"),
                (directional_edge(lay, k, "left"), "Z"),
                (directional_edge(lay, kp, "right"), "Z"),
                (directional_edge(lay, kp, "down"), "Z"),
            ],
            -0.5,
        )
        assert hopping_term(lay, k, kp) == short + long

    def test_vertical_expansion_weights(self):
        lay = EdgeLayout(4, 4)
        hop = hopping_term(lay, 6, 10)  # interior vertical edge
        weights = sorted(weight(ps) for ps, _ in hop)
        assert weights == [1, 7]

    def test_symmetric_in_arguments(self):
        lay = EdgeLayout(3, 3)
        for u, v in lay.edges():
            assert hopping_term(lay, u, v) == hopping_term(lay, v, u)

    def test_hermitian(self):
        lay = EdgeLayout(3, 3)
        for u, v in lay.edges():
            assert is_hermitian(hopping_term(lay, u, v))

    def test_worst_weights_on_large_lattice(self):
        lay = EdgeLayout(5, 5)
        horiz, vert = 0, 0
        for u, v in lay.edges():
            w_max = hopping_term(lay, u, v).max_weight()
            if abs(u - v) == 1:
                horiz = max(horiz, w_max)
            else:
                vert = max(vert, w_max)
        assert horiz == 5
        assert vert == 7


class TestPairTable:
    @pytest.mark.parametrize(
        "factors",
        [
            (0,),  # a lone c: an odd monomial, which a pair fold would drop
            (0, 3, 2),  # an edge pair, then a lone c
            (0, 2),  # c followed by another c
            (3, 0),  # d before c
            (0, 9),  # c_j d_k off an edge (0 and 4 are diagonal)
            (1, 0),  # d_k c_k at one vertex, d first
            (0, 21),  # across spin blocks: vertex 0 down, vertex 1 up
            (18, 3),  # across spin blocks: vertex 0 up, vertex 1 down
            (0, 3, 3, 0),  # an edge pair, then the reversed pair d_1 c_0
        ],
    )
    def test_refuses_what_it_cannot_encode(self, factors):
        spec = LsfsSpec(EdgeLayout(3, 3), 2)
        with pytest.raises(ValueError, match="LSFS encodes"):
            encode_model(spec, FermionOperator.term(spec.n_modes, 1.0, factors))

    def test_vertex_pair_is_i_times_the_vertex_generator(self):
        # c_k d_k = i B_k in each spin block, so n_k = (1 + i c_k d_k) / 2 = (1 - B_k) / 2.
        lay = EdgeLayout(3, 2)
        spec, n_v, n_e = LsfsSpec(lay, 2), lay.n_vertices, lay.n_edges
        for offset, block in ((0, 0), (n_e, n_v)):
            for k in range(n_v):
                pair = FermionOperator.term(2 * n_v, 1.0, (2 * (k + block), 2 * (k + block) + 1))
                expected = embedded(1j * b_op(lay, k), 2 * n_e, offset)
                assert encode_model(spec, pair) == expected

    def test_pair_is_signed_edge_times_vertex_generator(self):
        lay = EdgeLayout(3, 3)
        spec = LsfsSpec(lay)
        for u, v in lay.edges():
            for j, k in ((u, v), (v, u)):
                pair = encode_model(spec, FermionOperator.term(9, 1.0, (2 * j, 2 * k + 1)))
                assert pair == a_op(lay, j, k) * b_op(lay, k)

    @pytest.mark.parametrize("w,h", [(w, h) for w in range(2, 6) for h in range(2, 5)])
    def test_pairs_are_signed_string_products(self, w, h):
        # One entry per directed edge: eps_jk times A(q) * B_k as strings, phase in coeff.
        lay = EdgeLayout(w, h)
        a_masks, b_masks = lay.generators
        expected, n = {}, lay.n_edges
        for q, (u, v) in enumerate(lay.edges()):
            for j, k in ((u, v), (v, u)):
                pair = PauliString(n, *a_masks[q]) * PauliString(n, 0, b_masks[k])
                expected[j, k] = (pair.x_mask, pair.z_mask, (1 if j > k else -1) * pair.phase)
        assert LsfsSpec(lay, 2).pairs == expected
        assert len(expected) == 2 * lay.n_edges

    def test_spin_blocks_are_shifted_copies(self):
        lay = EdgeLayout(3, 2)
        spec, n_v, n_e = LsfsSpec(lay, 2), lay.n_vertices, lay.n_edges
        assert (spec.n_modes, spec.n_qubits) == (2 * n_v, 2 * n_e)
        for offset, block in ((0, 0), (n_e, n_v)):
            for u, v in lay.edges():
                hop = FermionOperator.term(2 * n_v, 1.0, (2 * (u + block), 2 * (v + block) + 1))
                single = FermionOperator.term(n_v, 1.0, (2 * u, 2 * v + 1))
                expected = embedded(encode_model(LsfsSpec(lay), single), 2 * n_e, offset)
                assert encode_model(spec, hop) == expected
            for k in range(n_v):
                n_k = number_product(2 * n_v, (k + block,), 1.0)
                assert encode_model(spec, n_k) == embedded(number_term(lay, k), 2 * n_e, offset)


class TestHamiltonians:
    def test_number_term(self):
        lay = EdgeLayout(2, 2)
        nk = number_term(lay, 0)
        assert is_hermitian(nk)
        evals = np.sort(np.linalg.eigvalsh(nk.to_dense()))
        assert np.allclose(evals[:8], 0.0) and np.allclose(evals[8:], 1.0)

    def test_zero_parameters_zero_operator(self):
        assert hubbard_lsfs(2, 2, 0.0, 0.0, 0.0, 0.0).is_zero()

    def test_density_density_weight(self):
        ham = hubbard_lsfs(3, 3, 0.0, 1.0)
        # worst string is the product of two degree-4 crosses
        assert ham.max_weight() == 8

    def test_max_term_weight_interior(self):
        ham = hubbard_lsfs(4, 4, 1.0, 1.0, 0.5)
        assert ham.max_weight() == 8

    def test_qubit_count(self):
        ham = hubbard_lsfs(3, 4, 1.0, 1.0)
        assert ham.n_qubits == 4 * 12 - 2 * 3 - 2 * 4

    def test_too_small(self):
        with pytest.raises(ValueError):
            hubbard_lsfs(1, 1, 1.0, 1.0)

    def test_penalty_enters(self):
        lay = EdgeLayout(2, 2)
        base = single_spin_hamiltonian(lay, 1.0, 0.0)
        pen = single_spin_hamiltonian(lay, 1.0, 0.0, delta=6.0)
        assert pen - base == -3.0 * stabilizers(lay)[0]

    def test_default_penalty(self):
        assert default_penalty(1.0, 4.0, 0.5) == 40.0


def dense_projector(layout):
    """Reference projector: the dense product of (I + S_p)/2 over plaquettes."""
    dim = 1 << layout.n_edges
    proj = np.eye(dim, dtype=complex)
    for stab in stabilizers(layout):
        proj = proj @ (np.eye(dim) + stab.to_dense()) / 2.0
    return proj


# Every layout with at most 10 edges: strips up to 11 sites, 2x2, 2x3,
# 3x2, 2x4 and 4x2.  The 12-edge 3x3 reference product takes about 20 s
# and 1 GB of memory on a 2-core machine, too much for the tier-1 suite.
SMALL_LAYOUTS = [
    (w, h) for w in range(1, 12) for h in range(1, 12)
    if w * h >= 2 and 2 * w * h - w - h <= 10
]


class TestCodespace:
    @pytest.mark.parametrize("w, h", SMALL_LAYOUTS)
    def test_projector_is_dense_product(self, w, h):
        layout = EdgeLayout(w, h)
        assert codespace_projector(layout).tobytes() == dense_projector(layout).tobytes()

    def test_projector_past_cap_raises(self):
        with pytest.raises(DenseCapError):
            codespace_projector(EdgeLayout(4, 4))

    def test_projector_rank_2x2(self):
        proj = codespace_projector(EdgeLayout(2, 2))
        assert int(round(np.trace(proj).real)) == 8
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12

    def test_strip_has_identity_projector(self):
        proj = codespace_projector(EdgeLayout(3, 1))
        assert np.array_equal(proj, np.eye(4, dtype=complex))

    def test_projector_commutes_with_hamiltonian(self):
        lay = EdgeLayout(2, 2)
        ham = single_spin_hamiltonian(lay, 1.0, 0.3).to_dense()
        proj = codespace_projector(lay)
        assert np.max(np.abs(ham @ proj - proj @ ham)) < 1e-12

    def test_two_spin_hubbard_matches_fock_even_even_sector(self):
        # Each spin lattice encodes the even-parity sector of its own
        # sites, so the two-spin codespace holds the Fock states with even
        # spin-down and even spin-up particle numbers.
        w, h, t, u, eps = 2, 2, 0.8, 3.3, 0.4
        lay = EdgeLayout(w, h)
        ham = hubbard_lsfs(w, h, t, u, eps).to_dense()
        spin_proj = codespace_projector(lay)
        code_spec = restricted_spectrum(ham, np.kron(spin_proj, spin_proj))

        sites = w * h
        fock = fock_matrix(hubbard(LatticeSpec.rectangle(w, h), t, u, eps))
        low = (1 << sites) - 1
        even = [
            s for s in range(1 << (2 * sites))
            if bin(s & low).count("1") % 2 == 0 and bin(s >> sites).count("1") % 2 == 0
        ]
        fock_spec = np.sort(np.linalg.eigvalsh(fock[np.ix_(even, even)]))
        assert len(code_spec) == len(fock_spec) == 64
        assert np.max(np.abs(code_spec - fock_spec)) < 1e-9
