"""Command-line interface: outputs, determinism, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_pauli import is_hermitian, reference_json_dict

from fermap import lsfs
from fermap.analysis import model_encoding
from fermap.cli import main
from fermap.encodings import EncodingSpec, encode_model
from fermap.models import LatticeSpec, hubbard
from fermap.pauli import QubitOperator


def run(args):
    return main(args)


class TestEncode:
    def test_jw_2x2(self, tmp_path):
        out = tmp_path / "op.json"
        assert run(["encode", "--w", "2", "--h", "2", "--t", "1", "--u", "2",
                    "--encoding", "jw", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["meta"]["n_qubits"] == 8
        op = QubitOperator.from_json_dict(data["operator"])
        assert op.n_qubits == 8
        assert is_hermitian(op)

    def test_repeated_run_byte_identical(self, tmp_path):
        args = ["encode", "--w", "2", "--h", "3", "--encoding", "bk",
                "--t", "1.5", "--u", "0.5"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_lsfs_single_spin_sidecars(self, tmp_path):
        out = tmp_path / "lsfs.json"
        assert run(["encode", "--w", "4", "--h", "4", "--u", "0",
                    "--encoding", "lsfs", "--spin", "single",
                    "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "lsfs.stabilizers.json").read_text())
        assert sidecar["count"] == 9
        assert len(sidecar["stabilizers"]) == 9
        csv = (tmp_path / "lsfs.plaquettes.csv").read_text()
        assert csv.startswith("# fermap plaquette-report v1")
        rows = csv.strip().splitlines()[2:]
        assert len(rows) == 9
        assert all(row.endswith(",1") for row in rows)  # every sign +1
        assert "5 6 10 9,6,1" in rows  # interior plaquette, weight 6

    def test_lsfs_single_spin_rejects_u(self, tmp_path, capsys):
        code = run(["encode", "--w", "2", "--h", "2", "--u", "2",
                    "--encoding", "lsfs", "--spin", "single",
                    "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "U=0" in capsys.readouterr().err

    def test_forest_encoding_with_segments(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(["encode", "--w", "2", "--h", "2", "--encoding", "forest",
                    "--segments", "4,4", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["segments"] == [4, 4]

    def test_forest_without_segments_fails(self, tmp_path):
        assert run(["encode", "--w", "2", "--h", "2",
                    "--encoding", "forest", "--out", str(tmp_path / "x")]) == 2

    def test_segment_sum_mismatch(self, tmp_path):
        assert run(["encode", "--w", "2", "--h", "2", "--encoding", "forest",
                    "--segments", "3,3", "--out", str(tmp_path / "x")]) == 2

    def test_model_file(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "lattice": {"kind": "rectangle", "w": 2, "h": 2},
            "t": 1.0, "U": 4.0, "ordering": "snake",
        }))
        out = tmp_path / "op.json"
        assert run(["encode", "--model", str(model), "--encoding", "jw",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["U"] == 4.0

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--w", "9", "--dim", "3", "--ordering", "row_major"], "--w, --dim, --ordering"),
            (["--h", "3"], "--h"),
            (["--w", "0"], "--w"),
            (["--ordering", "snake"], "--ordering"),
        ],
    )
    def test_model_file_rejects_lattice_flags(self, flags, named, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"lattice": {"kind": "rectangle", "w": 2, "h": 2}}))
        out = tmp_path / "op.json"
        assert run(["encode", "--model", str(model), *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"fermap: --model replaces the lattice flags; drop {named}\n"
        assert not out.exists()

    def test_explicit_snake_ordering_is_the_default(self, capsys):
        base = ["encode", "--w", "3", "--h", "2", "--encoding", "bk"]
        assert run(base) == 0
        default = capsys.readouterr().out
        assert run([*base, "--ordering", "snake"]) == 0
        assert capsys.readouterr().out == default
        assert json.loads(default)["meta"]["ordering"] == "snake"

    def test_corrupted_model_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["encode", "--model", str(bad), "--out",
                    str(tmp_path / "x")]) == 2

    def test_unknown_encoding(self, tmp_path):
        assert run(["encode", "--w", "2", "--h", "2", "--encoding", "magic",
                    "--out", str(tmp_path / "x")]) == 2

    def test_missing_lattice(self):
        assert run(["encode", "--encoding", "jw"]) == 2


def dumps(data):
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def tree_operator(spec, lattice, t=1.0, u=1.0, eps=0.0):
    return encode_model(spec, hubbard(lattice, t, u, eps))


RECT, CUBE = LatticeSpec.rectangle, LatticeSpec.hypercube
# Each case's operator file must equal json.dumps(sort_keys=True, indent=1)
# of the reference data of the same operator, rebuilt here.
TREE_FILES = {
    "jw": (["--w", "3", "--h", "2", "--eps", "0.3"],
           lambda: tree_operator(model_encoding("jw", RECT(3, 2)), RECT(3, 2), eps=0.3)),
    "bk": (["--w", "2", "--h", "3", "--encoding", "bk", "--t", "1.5", "--u", "-0.5"],
           lambda: tree_operator(model_encoding("bk", RECT(2, 3)), RECT(2, 3), 1.5, -0.5)),
    "sbk": (["--w", "3", "--h", "3", "--encoding", "sbk", "--ordering", "row_major"],
            lambda: tree_operator(model_encoding("sbk", RECT(3, 3, "row_major")),
                                  RECT(3, 3, "row_major"))),
    "forest": (["--w", "2", "--h", "2", "--encoding", "forest", "--segments", "3,5"],
               lambda: tree_operator(EncodingSpec.from_segments([3, 5]), RECT(2, 2))),
    "hypercube": (["--dim", "3", "--w", "2", "--encoding", "sbk"],
                  lambda: tree_operator(model_encoding("sbk", CUBE(3, 2)), CUBE(3, 2))),
}
LSFS_FILES = {
    "both-spins": (["--w", "3", "--h", "2", "--u", "2"], 3, 2, "both"),
    "single-spin": (["--w", "3", "--h", "3", "--u", "0", "--spin", "single"], 3, 3, "single"),
    "single-spin-strip": (["--w", "3", "--h", "1", "--u", "0", "--spin", "single"], 3, 1, "single"),
    # Two-spin strips: no plaquettes, so empty sidecars beside the operator.
    "both-spins-3x1": (["--w", "3", "--h", "1", "--u", "2", "--eps", "0.3", "--delta", "4"],
                       3, 1, "both"),
    "both-spins-1x4": (["--w", "1", "--h", "4", "--u", "-1", "--eps", "0.2"], 1, 4, "both"),
    "both-spins-2x1": (["--w", "2", "--h", "1", "--t", "0.5", "--eps", "1"], 2, 1, "both"),
}


class TestEncodeText:
    @pytest.mark.parametrize("case", sorted(TREE_FILES))
    def test_tree_operator_file_is_json_dumps_text(self, case, tmp_path):
        args, build = TREE_FILES[case]
        out = tmp_path / "op.json"
        assert run(["encode", *args, "--out", str(out)]) == 0
        text = out.read_text()
        meta = json.loads(text)["meta"]
        assert text == dumps({"meta": meta, "operator": reference_json_dict(build())})

    def test_stdout_without_out_is_json_dumps_text(self, capsys):
        args, build = TREE_FILES["jw"]
        assert run(["encode", *args]) == 0
        text = capsys.readouterr().out
        meta = json.loads(text)["meta"]
        assert text == dumps({"meta": meta, "operator": reference_json_dict(build())})

    @pytest.mark.parametrize("case", sorted(LSFS_FILES))
    def test_lsfs_files_are_reference_text(self, case, tmp_path):
        args, w, h, spin = LSFS_FILES[case]
        out = tmp_path / "lsfs.json"
        assert run(["encode", "--encoding", "lsfs", *args, "--out", str(out)]) == 0
        layout = lsfs.EdgeLayout(w, h)
        meta = json.loads(out.read_text())["meta"]
        if spin == "both":
            operator = lsfs.hubbard_lsfs(w, h, meta["t"], meta["U"], meta["eps"], meta["delta"])
        else:
            operator = lsfs.single_spin_hamiltonian(layout, meta["t"], meta["eps"], meta["delta"])
        expected = {"meta": meta, "operator": reference_json_dict(operator)}
        assert out.read_text() == dumps(expected)
        stabs = lsfs.stabilizers(layout)
        sidecar = {
            "blocks": 2 if spin == "both" else 1,  # the loops hold in each spin block
            "count": len(stabs),
            "n_qubits": layout.n_edges,
            "stabilizers": [reference_json_dict(s) for s in stabs],
        }
        assert (tmp_path / "lsfs.stabilizers.json").read_text() == dumps(sidecar)
        rows = [
            f"{' '.join(map(str, plq))},{(s.x_mask | s.z_mask).bit_count()},{int(c.real)}"
            for plq, stab in zip(layout.plaquettes(), stabs)
            for s, c in stab.terms.items()
        ]
        csv = "# fermap plaquette-report v1: plaquette,weight,sign\nplaquette,weight,sign\n"
        assert (tmp_path / "lsfs.plaquettes.csv").read_text() == csv + "".join(
            row + "\n" for row in rows
        )

    @pytest.mark.parametrize("w, h", [(3, 3), (4, 2), (3, 1)])
    def test_stabilizer_sidecar_round_trips(self, w, h, tmp_path):
        out = tmp_path / "lsfs.json"
        assert run(["encode", "--encoding", "lsfs", "--w", str(w), "--h", str(h),
                    "--u", "0", "--spin", "single", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "lsfs.stabilizers.json").read_text())
        layout = lsfs.EdgeLayout(w, h)
        stabs = lsfs.stabilizers(layout)
        assert sidecar["count"] == len(stabs) == len(sidecar["stabilizers"])
        assert sidecar["n_qubits"] == layout.n_edges
        assert sidecar["blocks"] == 1
        read = [QubitOperator.from_json_dict(entry) for entry in sidecar["stabilizers"]]
        assert read == stabs


# sha256 of every file the two commands write, recorded while operator JSON
# still went through json.dumps; they hold the bytes fixed.  The three
# op.stabilizers.json entries were re-pinned when the sidecar gained its
# "blocks" key (2 for the two-spin operator, 1 for --spin single).
PINNED_SHA256 = {
    "jw-4x3-eps": (
        ["--w", "4", "--h", "3", "--eps", "0.3"],
        {"op.json": "ea8887097ecf03b6ea9f9e9e276a47aea6ff297739c6f2668bdd37130c21b48e"},
    ),
    "lsfs-3x3": (
        ["--w", "3", "--h", "3", "--encoding", "lsfs"],
        {
            "op.json": "7088649eedaf5694908b2b4b1ad0a5445c439a6e6c217b2fc6c29ffd62e013ae",
            "op.plaquettes.csv":
                "0fb09b5281b5e8c3968c548184d18f21399ef56193b0e230d16bf194c70a51bf",
            "op.stabilizers.json":
                "e83042faf027c59e58ed52302d77208772745a2035abf0f2a82fb1da20732cef",
        },
    ),
    # Non-square LSFS lattices, recorded while EdgeLayout still numbered
    # its edges by closed forms: a w/h swap in the edge table shows here.
    # op.json re-pinned when hubbard_lsfs became encode_model of
    # models.hubbard: at eps != 0 the identity coefficient sums its terms
    # in the builder's order, 8.25 -> 8.250000000000005.
    "lsfs-5x3-eps": (
        ["--w", "5", "--h", "3", "--eps", "0.3", "--encoding", "lsfs"],
        {
            "op.json": "7a5815d81081788bf7a72904508e060fbfd6be065263546aac330e4c0a5055c6",
            "op.plaquettes.csv":
                "b6109c3be064d955cecdec47320dc1c51856af7e2164157e16a61cac2d6235bc",
            "op.stabilizers.json":
                "301917a809042b6201b255f8fc7d75b10ea532bdfb09f7db87ee58474701295d",
        },
    ),
    "lsfs-2x6-single": (
        ["--w", "2", "--h", "6", "--spin", "single", "--u", "0", "--encoding", "lsfs"],
        {
            "op.json": "469697185a1f7ee20bd512ed60869d46221295e06fd9618855d1f2a7dbec4519",
            "op.plaquettes.csv":
                "f9247aa42c400381bae6a85f724f9a355fca344b27451aea76f36da81267a229",
            "op.stabilizers.json":
                "7b760508e79e5b1682fdaf4e45bcee8e4efe593e98e4cbae533ca0b3d33107a8",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_SHA256))
def test_encode_files_match_pinned_sha256(case, tmp_path):
    args, pins = PINNED_SHA256[case]
    assert run(["encode", *args, "--out", str(tmp_path / "op.json")]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == pins


class TestAnalyze:
    def test_all_encodings(self, tmp_path):
        out = tmp_path / "measured.csv"
        assert run(["analyze", "--w", "3", "--h", "3", "--out", str(out)]) == 0
        text = out.read_text()
        assert "jw,vertical,4" in text
        assert "lsfs,density-density,8" in text
        assert "af,vertical,4" in text

    def test_single_encoding(self, tmp_path):
        out = tmp_path / "measured.csv"
        assert run(["analyze", "--w", "2", "--h", "2", "--encoding", "bk",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert all(line.startswith(("#", "encoding", "bk,")) for line in lines)

    @pytest.mark.parametrize("name", ["ALL", "All"])
    def test_encoding_all_is_case_insensitive(self, name, capsys):
        assert run(["analyze", "--w", "2", "--h", "2", "--encoding", "all"]) == 0
        expected = capsys.readouterr()
        assert run(["analyze", "--w", "2", "--h", "2", "--encoding", name]) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize(
        "command, args, w",
        [
            ("encode", ["--w", "3", "--h", "4", "--encoding", "sbk", "--segment-size", "99"], 3),
            ("analyze", ["--w", "3", "--h", "4", "--encoding", "sbk", "--segment-size", "4"], 3),
            ("analyze", ["--w", "5", "--h", "3", "--segment-size", "4"], 3),
            ("analyze", ["--dim", "3", "--w", "2", "--encoding", "all", "--segment-size", "5"], 4),
        ],
    )
    def test_segment_wider_than_row_rejected(self, command, args, w, tmp_path, capsys):
        out = tmp_path / "out"
        assert run([command, *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        size = args[-1]
        assert captured.err == f"fermap: segment size {size} exceeds the row width {w}\n"

    def test_row_major_row_is_the_long_side(self, capsys):
        # A row-major 6x3 rectangle holds 6 sites per row, so size 4 fits.
        args = ["--w", "6", "--h", "3", "--ordering", "row_major", "--encoding", "sbk"]
        assert run(["analyze", *args, "--segment-size", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "sbk,density-density,6", "sbk,horizontal,5", "sbk,vertical,7"
        ]

    @pytest.mark.parametrize("args", [["--dim", "3", "--w", "2"], ["--dim", "2", "--w", "3"]])
    def test_all_on_hypercube_skips_lsfs(self, args, tmp_path):
        out = tmp_path / "measured.csv"
        assert run(["analyze", *args, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert list(dict.fromkeys(r.split(",")[0] for r in rows)) == ["jw", "bk", "sbk", "af"]

    @pytest.mark.parametrize(
        "args, names",
        [
            (["--w", "2", "--h", "1"], ["jw", "bk", "sbk", "lsfs"]),
            (["--dim", "2", "--w", "1"], ["jw", "bk", "sbk"]),
            (["--w", "1", "--h", "1"], ["jw", "bk", "sbk"]),
        ],
        ids=["2x1", "hypercube-side-1", "1x1"],
    )
    def test_all_lists_encodings_that_exist(self, args, names, capsys):
        assert run(["analyze", *args]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert list(dict.fromkeys(r.split(",")[0] for r in rows)) == names

    def test_model_file_rejects_lattice_flags(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"lattice": {"kind": "hypercube", "dim": 2, "w": 2}}))
        assert run(["analyze", "--model", str(model), "--w", "3", "--h", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fermap: --model replaces the lattice flags; drop --w, --h\n"

    def test_model_file_alone(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"lattice": {"kind": "rectangle", "w": 3, "h": 3}}))
        assert run(["analyze", "--model", str(model), "--encoding", "jw"]) == 0
        assert "jw,vertical,4" in capsys.readouterr().out

    def test_env_couplings_do_not_reach_the_measurement(self, monkeypatch, capsys):
        assert run(["analyze", "--w", "3", "--h", "3"]) == 0
        default = capsys.readouterr().out
        monkeypatch.setenv("FERMAP_T", "0")
        monkeypatch.setenv("FERMAP_U", "0")
        assert run(["analyze", "--w", "3", "--h", "3"]) == 0
        out = capsys.readouterr().out
        assert out == default
        rows = {tuple(row.split(",")[:2]) for row in out.splitlines()[2:]}
        for name in ("jw", "bk", "sbk", "af", "lsfs"):
            for klass in ("horizontal", "vertical", "density-density"):
                assert (name, klass) in rows

    def test_explicit_af_on_strip_rejected(self, capsys):
        assert run(["analyze", "--w", "2", "--h", "1", "--encoding", "af"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fermap: rectangular planning needs w, h >= 2\n"

    @pytest.mark.parametrize(
        "w, h, hop",
        [("1", "4", "lsfs,vertical,3"), ("4", "1", "lsfs,horizontal,3")],
    )
    def test_lsfs_one_row_or_column_has_one_hop_class(self, w, h, hop, capsys):
        assert run(["analyze", "--w", w, "--h", h, "--encoding", "lsfs"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert rows == ["lsfs,density-density,4", hop]

    @pytest.mark.parametrize("encoding", ["lsfs", "all"])
    @pytest.mark.parametrize("w, h, hop", [("2", "1", "horizontal"), ("1", "2", "vertical")])
    def test_two_site_strip_has_no_lsfs_hop_row(self, w, h, hop, encoding, capsys):
        """The one LSFS hop of a two-site strip encodes to zero: no class, no row."""
        assert run(["analyze", "--w", w, "--h", h, "--encoding", encoding]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [r for r in rows if r.startswith("lsfs,")] == ["lsfs,density-density,2"]
        if encoding == "all":
            assert f"jw,{hop},2" in rows

    def test_explicit_lsfs_on_hypercube_rejected(self, capsys):
        assert run(["analyze", "--dim", "2", "--w", "3", "--encoding", "lsfs"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fermap: loop-stabilized layout is defined on rectangles\n"


class TestTables:
    def test_markdown_rows(self, capsys):
        assert run(["tables", "--w", "2", "--h", "4"]) == 0
        out = capsys.readouterr().out
        for name in ("JW", "BK", "SBK", "AF", "LSFS"):
            assert f"| {name} |" in out

    def test_csv_table2(self, capsys):
        assert run(["tables", "--dim", "2", "--w", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "encoding,term_class,D,w,measured,formula,exactness" in out
        assert out.count("\nJW,") >= 1

    def test_usage_error(self):
        assert run(["tables", "--w", "3"]) == 2

    @pytest.mark.parametrize(
        "args",
        [["--dim", "0", "--w", "3"], ["--dim", "2", "--w", "1"], ["--w", "1", "--h", "4"]],
    )
    def test_degenerate_lattice_rejected(self, args, capsys):
        assert run(["tables", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fermap: degenerate lattice")


class TestSweepAndFig6:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--w", "8", "--out", str(out)]) == 0
        text = out.read_text()
        assert "8,8,8" in text  # full row tree: 2*ceil_log2(8)+2 = 8
        assert text.rstrip().splitlines()[-1].startswith("# optimum")

    def test_sweep_explicit_sizes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--w", "8", "--segments", "4", "--out", str(out)]) == 0
        assert "8,4,7" in out.read_text()

    @pytest.mark.parametrize("w,sizes", [("4", "4,8"), ("6", "8"), ("2", "1,3")])
    def test_segment_wider_than_row_rejected(self, w, sizes, capsys):
        assert run(["sweep", "--w", w, "--segments", sizes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        size = sizes.split(",")[-1]
        assert captured.err == f"fermap: segment size {size} exceeds the row width {w}\n"

    def test_fig6(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert run(["fig6", "--w-min", "2", "--w-max", "3", "--out", str(out)]) == 0
        text = out.read_text()
        assert "AF,2,4,4" in text and "AF,3,4,4" in text

    def test_fig6_bad_range(self):
        assert run(["fig6", "--w-min", "5", "--w-max", "3"]) == 2

    def test_fig6_empty_range_rejected(self, capsys):
        assert run(["fig6", "--w-min", "0", "--w-max", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fermap: degenerate range: fig6 needs --w-max >= 2\n"


class TestVerify:
    def test_symbolic_suite(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--suite", "symbolic", "--trials", "5",
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["status"] == "pass"

    def test_partial_on_small_cap(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--dense-cap", "4", "--trials", "5",
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["status"] == "partial"
        assert any(c["status"] == "skipped" for c in data["checks"])

    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_vacuous_trials_rejected(self, trials, capsys):
        assert run(["verify", "--suite", "symbolic", "--trials", trials]) == 2
        assert capsys.readouterr().err.startswith("fermap: --trials")

    @pytest.mark.parametrize("suite", ["desk", "symbolic"])
    def test_negative_dense_cap_rejected(self, suite, capsys):
        assert run(["verify", "--suite", suite, "--dense-cap", "-1", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "fermap: --dense-cap (FERMAP_DENSE_CAP) must be at least 0, not -1\n"
        )

    def test_negative_env_dense_cap_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("FERMAP_DENSE_CAP", "-1")
        assert run(["verify", "--trials", "1"]) == 2
        assert capsys.readouterr().err.startswith("fermap: --dense-cap (FERMAP_DENSE_CAP)")

    def test_zero_dense_cap_runs_symbolic_checks(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--dense-cap", "0", "--trials", "1", "--out", str(out)]) == 0
        statuses = {c["status"] for c in json.loads(out.read_text())["checks"]}
        assert statuses == {"pass", "skipped"}

    # sha256 of `verify --out` with each wall_time_s dropped and the
    # rounding-level residuals of the four codespace checks masked (they
    # varied with LAPACK while those checks called an eigensolver), recorded
    # once the penalty checks became exact algebra with a fixed detail.
    PINNED_SHA256 = {
        ("400", "0"): "f4bed7487b19d358c5e775f418ba03fcd1c4c9c0ee9db8fb6d808aaa32bdaeac",
        ("37", "5"): "ea69d8ae72035c68fdde9ca8f1b321229add243371a3746c724d96010d2d6a97",
    }

    @pytest.mark.parametrize("trials, seed", sorted(PINNED_SHA256))
    def test_report_matches_pinned_sha256(self, trials, seed, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("FERMAP_DENSE_CAP", raising=False)
        out = tmp_path / "verify.json"
        assert run(["verify", "--trials", trials, "--seed", seed, "--out", str(out)]) == 0
        text = out.read_text()
        report = json.loads(text)
        assert text == json.dumps(report, indent=2) + "\n"
        for check in report["checks"]:
            del check["wall_time_s"]
            if check["name"].startswith(("lsfs-sector-", "penalty-")):
                check["max_residual"] = None
        digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
        assert digest == self.PINNED_SHA256[trials, seed]
        summary = "".join(f"{c['name']}: pass\n" for c in report["checks"])
        assert capsys.readouterr() == (summary + "status: pass\n", "")

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FERMAP_DENSE_CAP", "4")
        out = tmp_path / "report.json"
        assert run(["verify", "--trials", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "partial"


class TestPlanAux:
    def test_json_payload(self, capsys):
        assert run(["plan-aux", "--w", "3", "--h", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total_qubits"] == 32
        assert data["aux_per_site"] == [0, 1, 1, 1, 1, 1, 1, 1, 0]

    def test_csv(self, tmp_path):
        out = tmp_path / "plan.csv"
        assert run(["plan-aux", "--dim", "3", "--w", "2", "--format", "csv",
                    "--out", str(out)]) == 0
        assert "# total_qubits=" in out.read_text()

    def test_usage(self):
        assert run(["plan-aux"]) == 2


# Every coupling from every source that sets it, as (flags, environment,
# model-file entry, message); the last case is the default LSFS penalty,
# 10x a finite coupling near the float limit.
LSFS = ["--encoding", "lsfs"]
NON_FINITE = {
    "flag-t": (["--t=nan"], {}, None, "coupling t must be finite, not nan"),
    "flag-u": (["--u=inf"], {}, None, "coupling U must be finite, not inf"),
    "flag-eps": (["--eps=-inf"], {}, None, "coupling eps must be finite, not -inf"),
    "flag-delta": ([*LSFS, "--delta=nan"], {}, None, "coupling delta must be finite, not nan"),
    "env-t": ([], {"FERMAP_T": "inf"}, None, "coupling t must be finite, not inf"),
    "env-u": (LSFS, {"FERMAP_U": "-inf"}, None, "coupling U must be finite, not -inf"),
    "env-eps": ([], {"FERMAP_EPS": "nan"}, None, "coupling eps must be finite, not nan"),
    "env-delta": (LSFS, {"FERMAP_DELTA": "inf"}, None, "coupling delta must be finite, not inf"),
    "model-t": ([], {}, '"t": NaN', "coupling t must be finite, not nan"),
    "model-U": (LSFS, {}, '"U": Infinity', "coupling U must be finite, not inf"),
    "model-u": ([], {}, '"u": -Infinity', "coupling U must be finite, not -inf"),
    "model-eps": ([], {}, '"eps": 1e400', "coupling eps must be finite, not inf"),
    "model-int": ([], {}, '"t": 1' + "0" * 400,
                  "malformed model config: int too large to convert to float"),
    "default-delta": ([*LSFS, "--t=1e308"], {}, None, "coupling delta must be finite, not inf"),
}


class TestParser:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("encode", ["--encoding", "jw", "--spin", "single"], "jw does not read --spin"),
            ("encode", ["--encoding", "bk", "--segments", "4,4"], "bk does not read --segments"),
            ("encode", ["--encoding", "lsfs", "--segment-size", "1"],
             "lsfs does not read --segment-size"),
            ("encode", ["--encoding", "lsfs", "--ordering", "row_major"],
             "lsfs does not read --ordering"),
            ("encode", ["--encoding", "sbk", "--segments", "4,4", "--spin", "both"],
             "sbk does not read --segments, --spin"),
            ("analyze", ["--encoding", "jw", "--segment-size", "5"],
             "jw does not read --segment-size"),
            ("analyze", ["--encoding", "lsfs", "--ordering", "snake"],
             "lsfs does not read --ordering"),
            ("analyze", ["--encoding", "af", "--ordering", "snake"],
             "af does not read --ordering"),
            ("encode", ["--encoding", "jw", "--delta", "5"], "jw does not read --delta"),
        ],
    )
    def test_flag_the_encoding_does_not_read_rejected(
        self, command, flags, message, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert run([command, "--w", "2", "--h", "2", *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"fermap: --encoding {message}\n"

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("encode", ["--encoding", "sbk", "--segment-size", "1", "--ordering", "row_major"]),
            ("encode", ["--encoding", "forest", "--segments", "4,4", "--ordering", "snake"]),
            ("encode", ["--encoding", "lsfs", "--spin", "both"]),
            ("analyze", ["--encoding", "sbk", "--segment-size", "1", "--ordering", "snake"]),
            ("analyze", ["--segment-size", "1", "--ordering", "row_major"]),
        ],
    )
    def test_flag_the_encoding_reads_accepted(self, command, flags, tmp_path):
        assert run([command, "--w", "2", "--h", "2", *flags, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["tables", "--w", "3", "--h", "4", "--ordering", "row_major"],
            ["analyze", "--w", "3", "--h", "3", "--eps", "0.5"],
            ["analyze", "--w", "3", "--h", "3", "--t", "0"],
            ["analyze", "--w", "3", "--h", "3", "--u", "0"],
        ],
    )
    def test_ignored_options_are_gone(self, args):
        with pytest.raises(SystemExit) as err:
            run(args)
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "command,noun",
        [("encode", "lattices"), ("analyze", "lattices"), ("tables", "tables"),
         ("plan-aux", "plans")],
    )
    @pytest.mark.parametrize("dim", ["2", "3"])
    def test_h_beside_dim_rejected(self, command, noun, dim, tmp_path, capsys):
        out = tmp_path / "out"
        assert run([command, "--dim", dim, "--w", "2", "--h", "9", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"fermap: hypercubic {noun} take no --h: every side is --w\n"

    @pytest.mark.parametrize("command", ["encode", "analyze"])
    @pytest.mark.parametrize("ordering", ["snake", "row_major"])
    def test_ordering_beside_dim_rejected(self, command, ordering, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [command, "--dim", "2", "--w", "3", "--ordering", ordering, "--out", str(out)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        message = "hypercubic lattices take no --ordering: their sites are row-major"
        assert captured.err == f"fermap: {message}\n"

    def test_hypercube_model_file_takes_no_ordering(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        lattice = {"kind": "hypercube", "dim": 2, "w": 3}
        model.write_text(json.dumps({"lattice": lattice, "ordering": "row_major"}))
        assert run(["encode", "--model", str(model)]) == 2
        message = "hypercube models take no ordering: sites are row-major"
        assert capsys.readouterr().err == f"fermap: {message}\n"

    def test_hypercube_meta_records_row_major(self, tmp_path):
        out = tmp_path / "op.json"
        assert run(["encode", "--dim", "2", "--w", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["ordering"] == "row_major"

    def test_env_coupling_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FERMAP_U", "7.5")
        out = tmp_path / "op.json"
        assert run(["encode", "--w", "2", "--h", "2", "--encoding", "jw",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["U"] == 7.5

    @pytest.mark.parametrize(
        "name,args",
        [
            ("T", ["encode", "--w", "2", "--h", "2"]),
            ("EPS", ["encode", "--w", "2", "--h", "2"]),
            ("DELTA", ["encode", "--w", "2", "--h", "2", "--encoding", "lsfs"]),
            ("SEED", ["verify", "--trials", "1"]),
        ],
    )
    def test_bad_env_value_exits_2(self, name, args, monkeypatch, capsys):
        monkeypatch.setenv(f"FERMAP_{name}", "abc")
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err == f"fermap: FERMAP_{name}='abc' is not a valid " + (
            "int\n" if name == "SEED" else "float\n"
        )

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_coupling_exits_2(self, case, monkeypatch, tmp_path, capsys):
        flags, env, model, message = NON_FINITE[case]
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        argv = ["encode", *flags, "--out", str(tmp_path / "out" / "op.json")]
        if model is None:
            argv += ["--w", "2", "--h", "2"]
        else:
            path = tmp_path / "model.json"
            path.write_text('{"lattice": {"kind": "rectangle", "w": 2, "h": 2}, ' + model + "}")
            argv += ["--model", str(path)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "out").exists()
        assert captured.err == f"fermap: {message}\n"

    @pytest.mark.parametrize("encoding", ["jw", "bk", "sbk"])
    def test_env_delta_does_not_reach_tree_encodes(self, encoding, monkeypatch, tmp_path):
        args = ["encode", "--w", "2", "--h", "2", "--encoding", encoding]
        plain, with_env = tmp_path / "plain.json", tmp_path / "env.json"
        assert run([*args, "--out", str(plain)]) == 0
        monkeypatch.setenv("FERMAP_DELTA", "5")
        assert run([*args, "--out", str(with_env)]) == 0
        assert with_env.read_bytes() == plain.read_bytes()

    def test_env_delta_sets_lsfs_penalty(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FERMAP_DELTA", "2.5")
        out = tmp_path / "op.json"
        assert run(["encode", "--w", "2", "--h", "2", "--encoding", "lsfs", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["delta"] == 2.5
        assert run(["encode", "--w", "2", "--h", "2", "--encoding", "lsfs", "--delta", "4",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["delta"] == 4.0


# One run per input path, and the FERMAP_ variables it reads: a flag or a
# --model entry hides the variable, and a run that does not use a number
# never reads its variable.  MODEL stands for a file that sets t, U and eps.
COUPLINGS = {"T", "U", "EPS"}
ENV_RUNS = {
    "help": (["--help"], set()),
    "encode-help": (["encode", "--help"], set()),
    "verify-help": (["verify", "--help"], set()),
    "analyze": (["analyze", "--w", "2", "--h", "2"], set()),
    "tables": (["tables", "--w", "2", "--h", "2"], set()),
    "sweep": (["sweep", "--w", "8"], set()),
    "fig6": (["fig6", "--w-max", "3"], set()),
    "plan-aux": (["plan-aux", "--w", "2", "--h", "2"], set()),
    "encode": (["encode", "--w", "2", "--h", "2"], COUPLINGS),
    "encode-flags": (["encode", "--w", "2", "--h", "2", "--t", "2", "--u", "0", "--eps", "1"],
                     set()),
    "encode-model": (["encode", "--model", "MODEL"], set()),
    "lsfs-model": (["encode", "--model", "MODEL", "--encoding", "lsfs"], {"DELTA"}),
    "lsfs": (["encode", "--w", "2", "--h", "2", "--encoding", "lsfs"], COUPLINGS | {"DELTA"}),
    "lsfs-flags": (["encode", "--w", "2", "--h", "2", "--encoding", "lsfs", "--t", "2",
                    "--u", "0", "--eps", "1", "--delta", "3"], set()),
    "verify": (["verify", "--suite", "symbolic", "--trials", "1"], {"DENSE_CAP", "SEED"}),
    "verify-flags": (["verify", "--suite", "symbolic", "--trials", "1", "--dense-cap", "4",
                      "--seed", "3"], set()),
}
MALFORMED = {"T": "abc", "U": "1,5", "EPS": "x", "DELTA": "-", "DENSE_CAP": "1.5", "SEED": "1.5"}


def outcome(argv, capsys, tmp_path):
    """Exit code, stdout, stderr and every written file (verify's wall times dropped)."""
    model = tmp_path / "model.json"
    model.write_text('{"lattice": {"kind": "rectangle", "w": 2, "h": 2}, "t": 2, "U": 0, "eps": 1}')
    argv = [str(model) if arg == "MODEL" else arg for arg in argv]
    out_dir = tmp_path / "out"
    if "--help" not in argv:
        argv += ["--out", str(out_dir / "result")]
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    files = {}
    for path in sorted(out_dir.glob("*")) if out_dir.exists() else []:
        text = path.read_text()
        if argv[0] == "verify":
            report = json.loads(text)
            for check in report["checks"]:
                del check["wall_time_s"]
            text = json.dumps(report)
        files[path.name] = text
        path.unlink()
    return (code, *capsys.readouterr(), files)


class TestInputRule:
    @pytest.mark.parametrize("run_name", sorted(ENV_RUNS))
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_variable_read_only_where_used(
        self, name, run_name, monkeypatch, tmp_path, capsys
    ):
        argv, reads = ENV_RUNS[run_name]
        clean = outcome(argv, capsys, tmp_path)
        assert clean[0] == 0
        monkeypatch.setenv(f"FERMAP_{name}", MALFORMED[name])
        if name not in reads:
            assert outcome(argv, capsys, tmp_path) == clean
        else:
            kind = "int" if name in ("DENSE_CAP", "SEED") else "float"
            message = f"fermap: FERMAP_{name}={MALFORMED[name]!r} is not a valid {kind}\n"
            assert outcome(argv, capsys, tmp_path) == (2, "", message, {})

    def test_flag_beats_malformed_variable(self, monkeypatch, capsys):
        monkeypatch.setenv("FERMAP_SEED", "x")
        assert run(["verify", "--seed", "3", "--trials", "1"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "entry, flag, key",
        [("t", "--t", "t"), ("U", "--u", "U"), ("u", "--u", "U"), ("eps", "--eps", "eps")],
    )
    def test_model_entry_beside_its_flag_rejected(self, entry, flag, key, tmp_path, capsys):
        model = tmp_path / "model.json"
        lattice = {"kind": "rectangle", "w": 2, "h": 2}
        model.write_text(json.dumps({"lattice": lattice, entry: 2}))
        out = tmp_path / "op.json"
        assert run(["encode", "--model", str(model), flag, "3", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"fermap: --model sets {key}; drop {flag}\n")
        assert not out.exists()

    def test_flag_sets_what_the_model_file_leaves_out(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"lattice": {"kind": "rectangle", "w": 2, "h": 2}, "U": 4}))
        out = tmp_path / "op.json"
        assert run(["encode", "--model", str(model), "--t", "3", "--out", str(out)]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert (meta["t"], meta["U"], meta["eps"]) == (3.0, 4.0, 0.0)

    def test_model_file_beats_variable(self, monkeypatch, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"lattice": {"kind": "rectangle", "w": 2, "h": 2}, "t": 2}))
        monkeypatch.setenv("FERMAP_T", "5")
        monkeypatch.setenv("FERMAP_EPS", "0.25")
        out = tmp_path / "op.json"
        assert run(["encode", "--model", str(model), "--out", str(out)]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert (meta["t"], meta["eps"]) == (2.0, 0.25)

    @pytest.mark.parametrize("command", ["encode", "analyze"])
    def test_infinite_model_side_exits_2(self, command, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text('{"lattice": {"kind": "rectangle", "w": Infinity, "h": 2}}')
        assert run([command, "--model", str(model)]) == 2
        message = "malformed model config: cannot convert float infinity to integer"
        assert capsys.readouterr() == ("", f"fermap: {message}\n")

    @pytest.mark.parametrize(
        "lattice, couplings, message",
        [
            ({"w": 2.7, "h": 2}, {}, "w must be an integer, not 2.7"),
            ({"w": True, "h": 3}, {}, "w must be an integer, not true"),
            ({"w": 2, "h": 2}, {"t": True}, "t must be a number, not true"),
            ({"w": 2, "h": 2}, {"U": "3"}, 'U must be a number, not "3"'),
        ],
        ids=["fractional-side", "bool-side", "bool-coupling", "string-coupling"],
    )
    def test_model_entry_that_needs_coercion_exits_2(
        self, lattice, couplings, message, tmp_path, capsys
    ):
        # Each of these used to encode: a 2-wide lattice, a 1x3 strip, t = 1.0, U = 3.0.
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"lattice": {"kind": "rectangle", **lattice}, **couplings}))
        out = tmp_path / "op.json"
        assert run(["encode", "--model", str(model), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"fermap: malformed model config: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [("encode", ["--delta", "1"]), ("analyze", ["--segment-size", "1"])],
    )
    def test_unknown_encoding_named_before_its_flags(self, command, flags, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [command, "--w", "2", "--h", "2", "--encoding", "magic", *flags, "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "fermap: unknown encoding 'magic'\n")
        assert not out.exists()


# Exact text of every CSV writer and of both table formats: any drift in a
# header, separator, blank cell or trailer fails here.
GOLDEN = {
    "tables-3x4-csv": (
        ["tables", "--w", "3", "--h", "4", "--format", "csv"],
        "out",
        """\
# fermap locality-report-rectangle v1: encoding,term_class,w,h,measured,formula,exactness
encoding,term_class,w,h,measured,formula,exactness
JW,density-density,3,4,2,2,exact
JW,horizontal,3,4,2,2,exact
JW,vertical,3,4,4,4,exact
JW,qubits,3,4,24,24,exact
BK,density-density,3,4,8,8,exact
BK,horizontal,3,4,5,7,bound
BK,vertical,3,4,7,7,bound
BK,qubits,3,4,24,24,exact
SBK,density-density,3,4,4,4,bound
SBK,horizontal,3,4,3,3,info
SBK,vertical,3,4,5,3,info
SBK,horizontal,3,4,3,4,bound
SBK,vertical,3,4,5,5,bound
SBK,qubits,3,4,24,24,exact
AF,density-density,3,4,2,2,exact
AF,horizontal,3,4,2,2,exact
AF,vertical,3,4,4,4,exact
AF,qubits,3,4,44,44,exact
LSFS,density-density,3,4,8,8,exact
LSFS,horizontal,3,4,4,5,bound
LSFS,horizontal,3,4,4,7,bound
LSFS,vertical,3,4,7,7,exact
LSFS,qubits,3,4,34,34,exact
""",
    ),
    "tables-3x4-md": (
        ["tables", "--w", "3", "--h", "4"],
        "out",
        """\
| Method | density-density | horizontal | vertical | qubits |
|---|---|---|---|---|
| JW | 2 = 2 (measured 2) | 2 = 2 (measured 2) | w+1 = 4 (measured 4) | 2wh = 24 (measured 24) |
| BK | 2*floor_log2(wh)+2 = 8 (measured 8) | floor_log2(wh)+ceil_log2(wh) = 7 (measured 5) | floor_log2(wh)+ceil_log2(wh) = 7 (measured 7) | 2wh = 24 (measured 24) |
| SBK | 2*floor_log2(w)+2 = 4 (measured 4) | floor_log2(w)+ceil_log2(w) = 3 (measured 3); 2*ceil_log2(w) = 4 (measured 3) | 2*floor_log2(w)+1 = 3 (measured 5); 2*ceil_log2(w)+1 = 5 (measured 5) | 2wh = 24 (measured 24) |
| AF | 2 = 2 (measured 2) | 2 = 2 (measured 2) | 4 = 4 (measured 4) | 4(wh-1) = 44 (measured 44) |
| LSFS | 8 = 8 (measured 8) | 5 = 5 (measured 4); 7 = 7 (measured 4) | 7 = 7 (measured 7) | 4wh-2w-2h = 34 (measured 34) |
""",
    ),
    "tables-3x4-unmeasured-csv": (
        ["tables", "--w", "3", "--h", "4", "--no-measure", "--format", "csv"],
        "out",
        """\
# fermap locality-report-rectangle v1: encoding,term_class,w,h,measured,formula,exactness
encoding,term_class,w,h,measured,formula,exactness
JW,density-density,3,4,,2,exact
JW,horizontal,3,4,,2,exact
JW,vertical,3,4,,4,exact
JW,qubits,3,4,,24,exact
BK,density-density,3,4,,8,exact
BK,horizontal,3,4,,7,bound
BK,vertical,3,4,,7,bound
BK,qubits,3,4,,24,exact
SBK,density-density,3,4,,4,bound
SBK,horizontal,3,4,,3,info
SBK,vertical,3,4,,3,info
SBK,horizontal,3,4,,4,bound
SBK,vertical,3,4,,5,bound
SBK,qubits,3,4,,24,exact
AF,density-density,3,4,2,2,exact
AF,horizontal,3,4,2,2,exact
AF,vertical,3,4,4,4,exact
AF,qubits,3,4,44,44,exact
LSFS,density-density,3,4,,8,exact
LSFS,horizontal,3,4,,5,bound
LSFS,horizontal,3,4,,7,bound
LSFS,vertical,3,4,,7,exact
LSFS,qubits,3,4,,34,exact
""",
    ),
    "tables-d2-w3-csv": (
        ["tables", "--dim", "2", "--w", "3", "--format", "csv"],
        "out",
        """\
# fermap locality-report-hypercube v1: encoding,term_class,D,w,measured,formula,exactness
encoding,term_class,D,w,measured,formula,exactness
JW,hop,2,3,4,4,exact
JW,qubits,2,3,18,18,exact
BK,hop,2,3,5,6,info
BK,hop,2,3,5,7,bound
BK,qubits,2,3,18,18,exact
SBK,hop,2,3,5,3,info
SBK,hop,2,3,5,5,bound
SBK,qubits,2,3,18,18,exact
AF,hop,2,3,4,4,exact
AF,hop,2,3,2,2,info
AF,qubits,2,3,32,36,bound
LSFS,hop,2,3,6,7,bound
LSFS,density-density,2,3,8,8,bound
LSFS,qubits,2,3,24,24,exact
""",
    ),
    "tables-d2-w3-md": (
        ["tables", "--dim", "2", "--w", "3"],
        "out",
        """\
| Method | hop | qubits | density-density |
|---|---|---|---|
| JW | w^(D-1)+1 = 4 (measured 4) | 2w^D = 18 (measured 18) | - |
| BK | 2*floor_log2(w^D) = 6 (measured 5); floor_log2(w^D)+ceil_log2(w^D) = 7 (measured 5) | 2w^D = 18 (measured 18) | - |
| SBK | 2*floor_log2(w^(D-1))+1 = 3 (measured 5); 2*ceil_log2(w^(D-1))+1 = 5 (measured 5) | 2w^D = 18 (measured 18) | - |
| AF | 2D = 4 (measured 4); 2D-2 = 2 (measured 2) | 2D*w^D = 36 (measured 32) | - |
| LSFS | 4D-1 = 7 (measured 6) | 2D(w-1)w^(D-1) = 24 (measured 24) | 4D = 8 (measured 8) |
""",
    ),
    "sweep-w8": (
        ["sweep", "--w", "8"],
        "out",
        """\
# fermap segment-sweep v1: w,segment_size,vertical_locality
w,segment_size,vertical_locality
8,1,9
8,2,7
8,4,7
8,8,8
# optimum segment_size=4 vertical_locality=7
""",
    ),
    "fig6-2-4": (
        ["fig6", "--w-min", "2", "--w-max", "4"],
        "out",
        """\
# fermap fig6-series v1: encoding,w,measured,formula
encoding,w,measured,formula
JW,2,3,3
BK,2,6,6
SBK,2,3,4
AF,2,4,4
LSFS,2,4,8
JW,3,4,4
BK,3,8,8
SBK,3,5,5
AF,3,4,4
LSFS,3,8,8
JW,4,5,5
BK,4,10,10
SBK,4,5,6
AF,4,4,4
LSFS,4,8,8
""",
    ),
    "fig6-1-3": (
        ["fig6", "--w-min", "1", "--w-max", "3"],
        "out",
        """\
# fermap fig6-series v1: encoding,w,measured,formula
encoding,w,measured,formula
JW,2,3,3
BK,2,6,6
SBK,2,3,4
AF,2,4,4
LSFS,2,4,8
JW,3,4,4
BK,3,8,8
SBK,3,5,5
AF,3,4,4
LSFS,3,8,8
""",
    ),
    "analyze-3x3": (
        ["analyze", "--w", "3", "--h", "3"],
        "out",
        """\
# fermap measured-locality v1: encoding,term_class,measured
encoding,term_class,measured
jw,density-density,2
jw,horizontal,2
jw,vertical,4
bk,density-density,8
bk,horizontal,5
bk,vertical,5
sbk,density-density,4
sbk,horizontal,3
sbk,vertical,5
af,density-density,2
af,horizontal,2
af,vertical,4
lsfs,density-density,8
lsfs,horizontal,4
lsfs,vertical,6
""",
    ),
    "plan-aux-3x3-csv": (
        ["plan-aux", "--w", "3", "--h", "3", "--format", "csv"],
        "out",
        """\
# fermap aux-plan v1: site,degree,path_degree,nonlocal_degree,aux
site,degree,path_degree,nonlocal_degree,aux
0,2,2,0,0
1,3,2,1,1
2,2,1,1,1
3,3,2,1,1
4,4,2,2,1
5,3,2,1,1
6,2,1,1,1
7,3,2,1,1
8,2,2,0,0
# total_qubits=32 formula=32
""",
    ),
    "lsfs-3x3-plaquettes": (
        ["encode", "--encoding", "lsfs", "--w", "3", "--h", "3"],
        "out.plaquettes.csv",
        """\
# fermap plaquette-report v1: plaquette,weight,sign
plaquette,weight,sign
0 1 4 3,5,1
1 2 5 4,5,1
3 4 7 6,5,1
4 5 8 7,5,1
""",
    ),
    "tables-4x5-csv": (
        ["tables", "--w", "4", "--h", "5", "--format", "csv"],
        "out",
        """\
# fermap locality-report-rectangle v1: encoding,term_class,w,h,measured,formula,exactness
encoding,term_class,w,h,measured,formula,exactness
JW,density-density,4,5,2,2,exact
JW,horizontal,4,5,2,2,exact
JW,vertical,4,5,5,5,exact
JW,qubits,4,5,40,40,exact
BK,density-density,4,5,10,10,exact
BK,horizontal,4,5,8,9,bound
BK,vertical,4,5,9,9,bound
BK,qubits,4,5,40,40,exact
SBK,density-density,4,5,4,6,bound
SBK,horizontal,4,5,4,4,bound
SBK,vertical,4,5,5,5,bound
SBK,qubits,4,5,40,40,exact
AF,density-density,4,5,2,2,exact
AF,horizontal,4,5,2,2,exact
AF,vertical,4,5,4,4,exact
AF,qubits,4,5,76,76,exact
LSFS,density-density,4,5,8,8,exact
LSFS,horizontal,4,5,5,5,exact
LSFS,horizontal,4,5,5,7,bound
LSFS,vertical,4,5,7,7,exact
LSFS,qubits,4,5,62,62,exact
""",
    ),
    "tables-2x2-md": (
        ["tables", "--w", "2", "--h", "2"],
        "out",
        """\
| Method | density-density | horizontal | vertical | qubits |
|---|---|---|---|---|
| JW | 2 = 2 (measured 2) | 2 = 2 (measured 2) | w+1 = 3 (measured 3) | 2wh = 8 (measured 8) |
| BK | 2*floor_log2(wh)+2 = 6 (measured 6) | floor_log2(wh)+ceil_log2(wh) = 4 (measured 3) | floor_log2(wh)+ceil_log2(wh) = 4 (measured 3) | 2wh = 8 (measured 8) |
| SBK | 2*floor_log2(w)+2 = 4 (measured 2) | floor_log2(w)+ceil_log2(w) = 2 (measured 2) | 2*floor_log2(w)+1 = 3 (measured 3) | 2wh = 8 (measured 8) |
| AF | 2 = 2 (measured 2) | 2 = 2 (measured 2) | 4 = 4 (measured 4) | 4(wh-1) = 12 (measured 12) |
| LSFS | 8 = 8 (measured 4) | 5 = 5 (measured 2); 7 = 7 (measured 2) | 7 = 7 (measured 3) | 4wh-2w-2h = 8 (measured 8) |
""",
    ),
    "tables-d1-w5-csv": (
        ["tables", "--dim", "1", "--w", "5", "--format", "csv"],
        "out",
        """\
# fermap locality-report-hypercube v1: encoding,term_class,D,w,measured,formula,exactness
encoding,term_class,D,w,measured,formula,exactness
JW,hop,1,5,2,2,exact
JW,qubits,1,5,10,10,exact
BK,hop,1,5,3,4,info
BK,hop,1,5,3,5,bound
BK,qubits,1,5,10,10,exact
SBK,hop,1,5,2,1,info
SBK,qubits,1,5,10,10,exact
AF,hop,1,5,2,2,exact
AF,qubits,1,5,10,10,bound
LSFS,hop,1,5,,3,bound
LSFS,density-density,1,5,,4,bound
LSFS,qubits,1,5,,8,exact
""",
    ),
    "tables-d3-w4-csv": (
        ["tables", "--dim", "3", "--w", "4", "--format", "csv"],
        "out",
        """\
# fermap locality-report-hypercube v1: encoding,term_class,D,w,measured,formula,exactness
encoding,term_class,D,w,measured,formula,exactness
JW,hop,3,4,17,17,exact
JW,qubits,3,4,128,128,exact
BK,hop,3,4,11,12,bound
BK,qubits,3,4,128,128,exact
SBK,hop,3,4,9,9,bound
SBK,qubits,3,4,128,128,exact
AF,hop,3,4,6,6,exact
AF,hop,3,4,4,4,info
AF,qubits,3,4,320,384,bound
LSFS,hop,3,4,,11,bound
LSFS,density-density,3,4,,12,bound
LSFS,qubits,3,4,,288,exact
""",
    ),
    "tables-d3-w3-unmeasured-csv": (
        ["tables", "--dim", "3", "--w", "3", "--no-measure", "--format", "csv"],
        "out",
        """\
# fermap locality-report-hypercube v1: encoding,term_class,D,w,measured,formula,exactness
encoding,term_class,D,w,measured,formula,exactness
JW,hop,3,3,,10,exact
JW,qubits,3,3,,54,exact
BK,hop,3,3,,8,info
BK,hop,3,3,,9,bound
BK,qubits,3,3,,54,exact
SBK,hop,3,3,,7,info
SBK,hop,3,3,,9,bound
SBK,qubits,3,3,,54,exact
AF,hop,3,3,6,6,exact
AF,hop,3,3,4,4,info
AF,qubits,3,3,122,162,bound
LSFS,hop,3,3,,11,bound
LSFS,density-density,3,3,,12,bound
LSFS,qubits,3,3,,108,exact
""",
    ),
}


class TestGoldenText:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_exact_text(self, case, tmp_path):
        argv, written, expected = GOLDEN[case]
        assert run(argv + ["--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / written).read_text() == expected


# Runs fermap.cli.main in a fresh interpreter and prints the modules it loaded.
COLD_START = """
import contextlib, io, sys
from fermap.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        rc = main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code
loaded = sorted(sys.modules)  # before this harness imports json to print them
assert rc == 0, f"exit code {rc}"
import json
print(json.dumps(loaded))
"""


def cold_start(job) -> set[str]:
    """The modules a fresh ``fermap.cli.main(job)`` loads."""
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "-c", COLD_START, *job]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


class TestBenchTracer:
    @pytest.mark.parametrize(
        "job",
        [
            ["sweep", "--w", "4"],
            ["encode", "--w", "2", "--h", "2", "--encoding", "lsfs"],
            ["verify", "--suite", "symbolic", "--trials", "2"],
            ["tables", "--w", "3", "--h", "3"],
            ["analyze", "--w", "3", "--h", "3"],
        ],
        ids=["sweep", "encode-lsfs", "verify", "tables", "analyze"],
    )
    def test_tracer_installs_and_runs(self, job, tmp_path):
        """The tracer looks up every name it wraps, whatever job it runs."""
        root = Path(__file__).resolve().parents[1]
        argv = [sys.executable, str(root / "bench" / "tracer.py"), str(tmp_path / "trace.json"),
                "--", *job, "--out", str(tmp_path / "job.out")]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "trace.json").read_text())["rc"] == 0


_CLI = {"cli", "pauli"}
_SYNTHESIS = _CLI | {"models", "fenwick", "encodings"}
_ANALYSIS = _SYNTHESIS | {"lsfs", "aux_fermion", "analysis"}
_LSFS_ENCODE = ["encode", "--w", "3", "--h", "3", "--encoding", "lsfs"]

# One cold start per distinct job: the job and the fermap modules it loads.  Every test
# below reads the launch of its row through `cold_loads`.
COLD_START_JOBS = {
    "help": (["--help"], _CLI),
    **{f"encode-{encoding[0]}": (["encode", "--w", "3", "--h", "2", "--encoding", *encoding],
                                 _SYNTHESIS)
       for encoding in (["jw"], ["bk"], ["sbk"], ["forest", "--segments", "6,6"])},
    "encode-lsfs": (_LSFS_ENCODE, _SYNTHESIS | {"lsfs"}),
    "encode-lsfs-single": ([*_LSFS_ENCODE, "--spin", "single", "--u", "0"], _SYNTHESIS | {"lsfs"}),
    "tables": (["tables", "--w", "4", "--h", "4"], _ANALYSIS),
    "sweep": (["sweep", "--w", "8"], _ANALYSIS),
    "fig6": (["fig6", "--w-max", "4"], _ANALYSIS),
    "analyze": (["analyze", "--w", "3", "--h", "3"], _ANALYSIS),
    "plan-aux": (["plan-aux", "--w", "3", "--h", "3"], _CLI | {"models", "aux_fermion"}),
    "verify": (["verify", "--trials", "10"], _SYNTHESIS | {"lsfs", "verify"}),
    "verify-symbolic": (["verify", "--suite", "symbolic"], _SYNTHESIS | {"lsfs", "verify"}),
    "verify-partial": (["verify", "--dense-cap", "4", "--trials", "10"],
                       _SYNTHESIS | {"lsfs", "verify"}),
}


@pytest.fixture(scope="module")
def cold_loads(tmp_path_factory):
    """The modules each ``COLD_START_JOBS`` row loads, launched once per module run."""
    loaded = {}

    def loads(case):
        if case not in loaded:
            job, _ = COLD_START_JOBS[case]
            out = tmp_path_factory.mktemp(case) / "o"
            loaded[case] = cold_start(job if job == ["--help"] else [*job, "--out", str(out)])
        return loaded[case]

    return loads


def fermap_modules(loaded) -> set[str]:
    return {name for name in loaded if name.split(".")[0] == "fermap"}


class TestImportScope:
    """Each command imports the layers it runs and no other."""

    @pytest.mark.parametrize("case", sorted(COLD_START_JOBS))
    def test_no_command_loads_dataclasses(self, case, cold_loads):
        """A fresh run loads exactly its ``fermap`` layers.  It never loads numpy (only
        the tests' dense matrices need it), nor ``dataclasses`` and the ``inspect`` it
        loads (no class is a data class); it loads ``json`` exactly where JSON is read
        or written."""
        job, layers = COLD_START_JOBS[case]
        loaded = cold_loads(case)
        assert fermap_modules(loaded) == {"fermap", *(f"fermap.{layer}" for layer in layers)}
        assert not loaded & {"numpy", "dataclasses", "inspect"}
        assert ("json" in loaded) == (job[0] in ("encode", "plan-aux", "verify"))

    def test_help_loads_only_the_cli(self, cold_loads):
        assert fermap_modules(cold_loads("help")) == {"fermap", "fermap.cli", "fermap.pauli"}

    @pytest.mark.parametrize("case", ["verify-symbolic", "verify-partial", "verify"],
                             ids=["symbolic", "partial", "desk"])
    def test_verify_loads_no_analysis(self, case, cold_loads):
        loaded = cold_loads(case)
        assert "fermap.verify" in loaded
        assert not loaded & {"fermap.analysis", "fermap.aux_fermion"}

    @pytest.mark.parametrize("encoding", ["jw", "bk", "sbk", "forest"])
    def test_tree_encode_loads_only_synthesis(self, encoding, cold_loads):
        loaded = cold_loads(f"encode-{encoding}")
        assert "fermap.encodings" in loaded
        assert not loaded & {"fermap.analysis", "fermap.aux_fermion", "fermap.lsfs",
                             "fermap.verify"}

    @pytest.mark.parametrize("case", ["encode-lsfs", "encode-lsfs-single"],
                             ids=["two-spin", "single-spin"])
    def test_lsfs_encode_loads_no_analysis(self, case, cold_loads):
        """The plaquette CSV is written by ``models.versioned_csv``, which LSFS loads anyway."""
        loaded = cold_loads(case)
        assert "fermap.lsfs" in loaded
        assert not loaded & {"fermap.analysis", "fermap.aux_fermion", "fermap.verify"}


class TestColdStart:
    @pytest.mark.parametrize(
        "case",
        ["help", "encode-jw", "encode-lsfs", "tables", "sweep", "fig6", "analyze", "plan-aux",
         "verify"],
    )
    def test_no_numpy_outside_dense_kernels(self, case, cold_loads):
        """Only dense matrices need numpy, and no command renders one."""
        assert "numpy" not in cold_loads(case)
