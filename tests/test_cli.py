"""Command-line interface: outputs, determinism, and exit codes."""

import json

import pytest

from fermap.cli import main
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
        assert op.is_hermitian()

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
        assert len(csv.strip().splitlines()) == 11  # header x2 + 9 rows

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

    def test_fig6(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert run(["fig6", "--w-min", "2", "--w-max", "3", "--out", str(out)]) == 0
        text = out.read_text()
        assert "AF,2,4,4" in text and "AF,3,4,4" in text

    def test_fig6_bad_range(self):
        assert run(["fig6", "--w-min", "5", "--w-max", "3"]) == 2


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


class TestParser:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_env_coupling_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FERMAP_U", "7.5")
        out = tmp_path / "op.json"
        assert run(["encode", "--w", "2", "--h", "2", "--encoding", "jw",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["U"] == 7.5

    @pytest.mark.parametrize(
        "name,args",
        [
            ("T", ["tables", "--w", "2", "--h", "2"]),
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
