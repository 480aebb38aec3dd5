"""Locality measurement, comparison tables, and the sweep/figure series."""

import pytest

from fermap import analysis, lsfs
from fermap.analysis import (
    LocalityReport,
    _worst_weights,
    ceil_log2,
    fig6_csv,
    fig6_series,
    floor_log2,
    measure,
    model_encoding,
    sbk_row_segments,
    sbk_segment_sweep,
    sweep_csv,
    sweep_optimum,
    table_I,
    table_II,
)
from fermap.encodings import encode_model
from fermap.models import FermionOperator, LatticeSpec, hubbard_terms


def rows_by(report, encoding, term_class):
    return [
        r for r in report.rows if r.encoding == encoding and r.term_class == term_class
    ]


class TestLogHelpers:
    def test_values(self):
        assert [floor_log2(n) for n in (1, 2, 3, 4, 7, 8)] == [0, 1, 1, 2, 2, 3]
        assert [ceil_log2(n) for n in (1, 2, 3, 4, 7, 8)] == [0, 1, 2, 2, 3, 3]
        with pytest.raises(ValueError):
            floor_log2(0)


class TestMeasure:
    @pytest.mark.parametrize("w,h", [(2, 2), (2, 5), (3, 3), (3, 6), (4, 7)])
    def test_jw_exact_row(self, w, h):
        lat = LatticeSpec.rectangle(w, h, "snake")
        m = measure("jw", lat)
        assert m["density-density"] == 2
        assert m["horizontal"] == 2
        assert m["vertical"] == w + 1

    def test_jw_row_major_wide_lattice_differs(self):
        # Without the short-side raster the vertical strings stretch to
        # w+1; the transposed raster caps the worst hop at min(w,h)+1.
        lat = LatticeSpec.rectangle(5, 2, "row_major")
        assert measure("jw", lat)["vertical"] == 6
        snake = measure("jw", LatticeSpec.rectangle(5, 2, "snake"))
        assert max(snake["horizontal"], snake["vertical"]) == 3

    def test_bk_density_exact(self):
        for w, h in [(2, 2), (3, 4), (4, 4)]:
            lat = LatticeSpec.rectangle(w, h, "snake")
            assert measure("bk", lat)["density-density"] == 2 * floor_log2(w * h) + 2

    @pytest.mark.parametrize("w", range(2, 11))
    def test_sbk_respects_ceiling_bounds(self, w):
        h = max(w, 3)
        m = measure("sbk", LatticeSpec.rectangle(w, h, "snake"))
        assert m["density-density"] <= 2 * floor_log2(w) + 2
        assert m["horizontal"] <= 2 * ceil_log2(w)
        assert m["vertical"] <= 2 * ceil_log2(w) + 1

    @pytest.mark.parametrize("w", range(2, 9))
    def test_sbk_one_tree_per_row_bounds(self, w):
        lat = LatticeSpec.rectangle(w, max(w, 3), "snake")
        m = measure("sbk", lat, segment_size=w)
        assert m["vertical"] <= 2 * ceil_log2(w) + 2
        assert m["horizontal"] <= max(2 * ceil_log2(w) - 1, 2)

    def test_af_profile(self):
        lat = LatticeSpec.rectangle(3, 5)
        assert measure("af", lat) == {
            "density-density": 2,
            "horizontal": 2,
            "vertical": 4,
        }

    def test_lsfs_measured_values(self):
        assert measure("lsfs", LatticeSpec.rectangle(4, 4)) == {
            "horizontal": 5,
            "vertical": 7,
            "density-density": 8,
        }
        small = measure("lsfs", LatticeSpec.rectangle(3, 3))
        assert small == {"horizontal": 4, "vertical": 6, "density-density": 8}
        # The one hop of a two-site strip encodes to zero and carries no weight.
        assert measure("lsfs", LatticeSpec.rectangle(2, 1)) == {"density-density": 2}

    def test_lsfs_reads_the_geometry_not_the_mode_order(self):
        # Snake order transposes a wide rectangle; LSFS qubits follow the
        # row-major vertices either way.
        expected = {"horizontal": 5, "vertical": 6, "density-density": 8}
        for ordering in ("snake", "row_major"):
            assert measure("lsfs", LatticeSpec.rectangle(6, 3, ordering)) == expected
        tall = {"horizontal": 4, "vertical": 7, "density-density": 8}
        assert measure("lsfs", LatticeSpec.rectangle(3, 6, "snake")) == tall

    def test_unknown_encoding(self):
        with pytest.raises(ValueError):
            measure("parity", LatticeSpec.rectangle(2, 2))

    def test_segments_builder(self):
        assert sbk_row_segments(5, 2, 3) == [3, 2, 3, 2]
        assert sbk_row_segments(4, 1, 2) == [2, 2]
        with pytest.raises(ValueError):
            sbk_row_segments(4, 1, 0)

    @pytest.mark.parametrize("w,h", [(5, 3), (6, 3)])
    def test_row_major_sbk_trees_stay_in_their_row(self, w, h):
        lat = LatticeSpec.rectangle(w, h, "row_major")
        for size in (None, *range(1, w + 1)):
            segments = model_encoding("sbk", lat, size).forest.segments
            assert len(segments) % (2 * h) == 0  # one chunk list per row and spin
            for start, stop in segments:
                assert (start % (w * h)) // w == ((stop - 1) % (w * h)) // w
        with pytest.raises(ValueError, match=f"exceeds the row width {w}$"):
            model_encoding("sbk", lat, w + 1)

    def test_model_encoding_registers(self):
        lat = LatticeSpec.rectangle(3, 4, "snake")
        assert model_encoding("jw", lat).n_modes == 24
        assert model_encoding("bk", lat).forest.segments == ((0, 12), (12, 24))
        sbk = model_encoding("sbk", lat)  # half rows of width 3 -> 2,1
        assert [b - a for a, b in sbk.forest.segments][:4] == [2, 1, 2, 1]


def _row_width(lattice):
    if lattice.kind == "hypercube":
        return lattice.w ** (lattice.dim - 1)
    return lattice.w if lattice.ordering == "row_major" else min(lattice.w, lattice.h)


def _block_cases():
    """(encoding, lattice, segment size) over small rectangles and hypercubes."""
    lattices = [
        LatticeSpec.rectangle(w, h, ordering)
        for w in range(1, 7)
        for h in range(1, 7)
        for ordering in ("snake", "row_major")
    ]
    lattices += [LatticeSpec.hypercube(1, w) for w in range(2, 7)]
    lattices += [LatticeSpec.hypercube(2, w) for w in range(2, 5)]
    lattices += [LatticeSpec.hypercube(3, w) for w in (2, 3)]
    for lat in lattices:
        yield "jw", lat, None
        yield "bk", lat, None
        for size in range(1, _row_width(lat) + 1):
            yield "sbk", lat, size
        if lat.kind == "rectangle" and lat.n_sites >= 2:
            yield "lsfs", lat, None


class TestOneSpinBlock:
    """``measure`` encodes only block 0's hops; the blocks must stay identical."""

    def test_equals_both_blocks(self):
        cases = 0
        for name, lat, size in _block_cases():
            if name == "lsfs":
                spec = lsfs.LsfsSpec(lsfs.EdgeLayout(lat.w, lat.h), 2)
                terms_lat = LatticeSpec.rectangle(lat.w, lat.h, "row_major")
            else:
                spec, terms_lat = model_encoding(name, lat, size), lat
            full = _worst_weights(
                (klass, encode_model(spec, piece))
                for klass, piece in hubbard_terms(terms_lat, 1.0, 1.0)
            )
            assert measure(name, lat, size) == full, (name, lat, size)
            cases += 1
        assert cases == 478

    @pytest.mark.parametrize("name", ["jw", "bk", "sbk", "lsfs"])
    @pytest.mark.parametrize("w,h", [(2, 2), (4, 3), (3, 5), (6, 2)])
    def test_encodes_each_edge_and_site_once(self, name, w, h, monkeypatch):
        calls = []

        def counting(spec, model):
            calls.append(model)
            return encode_model(spec, model)

        monkeypatch.setattr(analysis, "encode_model", counting)
        lat = LatticeSpec.rectangle(w, h)
        measure(name, lat)
        assert len(calls) == len(lat.edges()) + lat.n_sites


class TestBlockZeroStream:
    """Each fermion piece is built once: the tables share one block-0 stream per lattice."""

    @staticmethod
    def built(monkeypatch):
        pieces = []
        init = FermionOperator.__init__

        def counting(op, *args, **kwargs):
            init(op, *args, **kwargs)
            pieces.append(op)

        monkeypatch.setattr(FermionOperator, "__init__", counting)
        return pieces

    def test_table_I_builds_one_stream(self, monkeypatch):
        pieces = self.built(monkeypatch)
        table_I(4, 4)  # JW, BK, SBK and LSFS all read the 4x4 stream
        lat = LatticeSpec.rectangle(4, 4)
        assert len(pieces) == len(lat.edges()) + lat.n_sites == 40

    def test_table_II_builds_one_stream_per_lattice(self, monkeypatch):
        pieces = self.built(monkeypatch)
        table_II(2, 3)  # the hypercube's stream, and the 3x3 square's for LSFS
        assert len(pieces) == 2 * (12 + 9)

    def test_wide_snake_lsfs_builds_only_its_row_major_stream(self, monkeypatch):
        pieces = self.built(monkeypatch)
        snake = LatticeSpec.rectangle(5, 3)
        assert snake.site_order != tuple(range(15))
        measured = measure("lsfs", snake)
        assert len(pieces) == len(snake.edges()) + snake.n_sites == 37
        # A snake stream handed in is not read: LSFS modes are the row-major sites.
        snake_terms = hubbard_terms(snake, 1.0, 1.0, spins=(0,))
        assert measure("lsfs", snake, terms=snake_terms) == measured
        assert measured == measure("lsfs", LatticeSpec.rectangle(5, 3, "row_major"))

    def test_stream_is_the_filtered_two_spin_stream(self):
        for lat in (LatticeSpec.rectangle(4, 3), LatticeSpec.rectangle(5, 3, "row_major"),
                    LatticeSpec.hypercube(3, 2)):
            both = hubbard_terms(lat, 1.0, 1.0)
            block0 = [(k, p) for k, p in both
                      if min(i for _, m in p.terms for i in m) // 2 < lat.n_sites]
            assert hubbard_terms(lat, 1.0, 1.0, spins=(0,)) == block0


class TestTableI:
    def test_degenerate_suppressed(self):
        assert table_I(1, 1).rows == []
        assert table_I(1, 5).rows == []

    def test_orientation_normalized(self):
        rep = table_I(6, 3)
        assert rows_by(rep, "JW", "vertical")[0].formula == 4  # min side + 1

    def test_4x4_exact_rows(self):
        rep = table_I(4, 4)
        for enc, klass, value in [
            ("JW", "density-density", 2),
            ("JW", "horizontal", 2),
            ("JW", "vertical", 5),
            ("AF", "vertical", 4),
            ("LSFS", "density-density", 8),
            ("LSFS", "vertical", 7),
        ]:
            (row,) = rows_by(rep, enc, klass)
            assert row.exactness == "exact"
            assert row.measured == row.formula == value

    def test_lsfs_horizontal_rows(self):
        rep = table_I(4, 4)
        rows = rows_by(rep, "LSFS", "horizontal")
        by_formula = {r.formula: r for r in rows}
        assert by_formula[5].exactness == "exact"
        assert by_formula[5].measured == 5
        assert by_formula[7].exactness == "bound"

    def test_sbk_density_formula_row(self):
        rep = table_I(4, 8)
        (row,) = rows_by(rep, "SBK", "density-density")
        assert row.formula == 6  # 2*floor_log2(4)+2
        assert row.measured <= row.formula

    def test_bound_rows_hold(self):
        for w, h in [(2, 3), (3, 3), (4, 6), (5, 7)]:
            rep = table_I(w, h)
            for row in rep.rows:
                if row.exactness == "bound" and row.measured is not None:
                    assert row.measured <= row.formula
                if row.exactness == "exact" and row.measured is not None:
                    assert row.measured == row.formula

    def test_qubit_rows(self):
        rep = table_I(3, 5)
        assert rows_by(rep, "JW", "qubits")[0].formula == 30
        assert rows_by(rep, "AF", "qubits")[0].formula == 4 * 15 - 4
        assert rows_by(rep, "LSFS", "qubits")[0].formula == 4 * 15 - 2 * 3 - 2 * 5

    def test_csv_and_markdown(self):
        rep = table_I(2, 2)
        csv = rep.to_csv()
        assert csv.splitlines()[0].startswith("# fermap locality-report-rectangle v1")
        assert "encoding,term_class,w,h,measured,formula,exactness" in csv
        md = rep.to_markdown()
        assert md.startswith("| Method |")
        assert "| JW |" in md

    def test_unmeasured_report(self):
        rep = table_I(12, 20, measured=False)
        assert all(
            r.measured is None for r in rep.rows if r.encoding in ("JW", "BK", "SBK")
        )
        assert rows_by(rep, "JW", "vertical")[0].formula == 13


class TestTableII:
    def test_row_set(self):
        rep = table_II(2, 2)
        assert {r.encoding for r in rep.rows} == {"JW", "BK", "SBK", "AF", "LSFS"}

    def test_jw_exact(self):
        for dim, w in [(1, 4), (2, 2), (2, 3), (3, 2), (3, 3)]:
            rep = table_II(dim, w)
            (row,) = rows_by(rep, "JW", "hop")
            assert row.exactness == "exact"
            assert row.formula == w ** (dim - 1) + 1
            assert row.measured == row.formula

    def test_jw_hop_formula_example(self):
        (row,) = rows_by(table_II(2, 2), "JW", "hop")
        assert row.formula == 3

    def test_bound_rows_hold(self):
        for dim, w in [(1, 5), (2, 3), (3, 2), (3, 3)]:
            rep = table_II(dim, w)
            for row in rep.rows:
                if row.exactness == "bound" and row.measured is not None:
                    assert row.measured <= row.formula

    def test_af_rows_carry_both_values(self):
        rows = rows_by(table_II(3, 3), "AF", "hop")
        assert {r.formula for r in rows} == {6, 4}
        assert {r.exactness for r in rows} == {"exact", "info"}

    def test_lsfs_rows(self):
        rep = table_II(3, 3)
        (hop,) = rows_by(rep, "LSFS", "hop")
        (dens,) = rows_by(rep, "LSFS", "density-density")
        assert hop.formula == 11 and dens.formula == 12
        (qubits,) = rows_by(rep, "LSFS", "qubits")
        assert qubits.formula == 2 * 3 * 2 * 9

    def test_af_qubit_formula(self):
        (row,) = rows_by(table_II(3, 3), "AF", "qubits")
        assert row.formula == 2 * 3 * 27
        assert row.measured <= row.formula  # exact census is smaller

    def test_csv_header(self):
        csv = table_II(2, 2).to_csv()
        assert "encoding,term_class,D,w,measured,formula,exactness" in csv


class TestSweep:
    def test_w64_anchor_points(self):
        sweep = dict(sbk_segment_sweep(64))
        assert sweep[64] == 14
        assert sweep[32] == 13

    def test_w64_optimum_is_half_row(self):
        sweep = sbk_segment_sweep(64)
        size, value = sweep_optimum(sweep)
        assert (size, value) == (32, 13)

    def test_degenerate_w2(self):
        sweep = dict(sbk_segment_sweep(2))
        assert sweep[1] == 3  # singleton trees, adjacent-row hop on JW limit

    def test_single_point_range(self):
        assert sbk_segment_sweep(8, [4]) == [(4, 7)]

    def test_csv(self):
        text = sweep_csv(8, sbk_segment_sweep(8))
        assert text.splitlines()[0].startswith("# fermap segment-sweep v1")
        assert text.splitlines()[1] == "w,segment_size,vertical_locality"

    def test_invalid(self):
        with pytest.raises(ValueError):
            sbk_segment_sweep(1)

    @pytest.mark.parametrize("w,sizes", [(4, [4, 8]), (6, [8]), (8, [9])])
    def test_segment_wider_than_row_rejected(self, w, sizes):
        with pytest.raises(ValueError, match="exceeds the row width"):
            sbk_segment_sweep(w, sizes)

    def test_default_sizes_fit_the_row(self):
        for w in (2, 5, 12, 33):
            assert max(size for size, _ in sbk_segment_sweep(w)) == w


class TestFig6:
    def test_constant_series(self):
        rows = fig6_series(range(3, 7))
        af = [r["measured"] for r in rows if r["encoding"] == "AF"]
        lsfs = [r["measured"] for r in rows if r["encoding"] == "LSFS"]
        assert af == [4, 4, 4, 4]
        assert lsfs == [8, 8, 8, 8]

    def test_jw_growth(self):
        rows = fig6_series(range(2, 8))
        jw = [(r["w"], r["measured"]) for r in rows if r["encoding"] == "JW"]
        assert jw == [(w, w + 1) for w in range(2, 8)]

    def test_measured_within_formula(self):
        for row in fig6_series(range(2, 9)):
            assert row["measured"] <= row["formula"]

    def test_csv(self):
        text = fig6_csv(fig6_series([4]))
        lines = text.splitlines()
        assert lines[1] == "encoding,w,measured,formula"
        assert "JW,4,5,5" in lines

    def test_skips_degenerate(self):
        assert fig6_series([1]) == []


class TestReportContainer:
    def test_empty_report_emits_header_only(self):
        rep = LocalityReport("rectangle", [])
        assert rep.to_csv().count("\n") == 2
