"""The benchmark's workloads: CLI jobs generated from a seed, and output checks.

Every check compares a job's files with closed forms from the lattice
geometry alone (E = 2wh - w - h edges, S = wh sites, P = (w-1)(h-1)
plaquettes per spin) and never re-runs an encoder.  A check returns
``(problems, stats)``: an empty problem list means the outputs are right,
and ``stats`` holds exact counts read from them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TRANSPILE_W = TRANSPILE_H = 20
TABLE_W = TABLE_H = 16
TABLE_DIM, TABLE_SIDE = 3, 4
SWEEP_W = 512
FIG6_W_MIN, FIG6_W_MAX = 2, 12
VERIFY_TRIALS = 400
VERIFY_CHECKS = 11
REL_TOL = 1e-9


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files the job writes, relative to the pass dir
    check: Callable[[Path], tuple[list[str], dict]]


@dataclass(frozen=True)
class Couplings:
    t: str  # kept as the exact CLI text
    u: str

    @classmethod
    def from_seed(cls, seed: int) -> "Couplings":
        # Disjoint ranges keep |t|/2, |U|/4 and the penalty delta/2 apart,
        # so every emitted coefficient names its term class.
        rng = random.Random(seed)
        return cls(t=f"{rng.uniform(0.5, 1.5):.6f}", u=f"{rng.uniform(3.5, 6.0):.6f}")


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def lattice_counts(w: int, h: int) -> tuple[int, int, int]:
    """Edges, sites and plaquettes of one spin lattice."""
    return 2 * w * h - w - h, w * h, (w - 1) * (h - 1)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _csv_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


# ---------------------------------------------------------------------------
# transpile: encode --w 20 --h 20 under each encoding.
# ---------------------------------------------------------------------------


def _check_operator(path: Path, coup: Couplings, n_qubits: int, classes: dict, worst):
    """Closed-form shape of an encoded Hubbard operator.

    ``classes`` maps (kind, value) to the number of non-identity terms
    whose coefficient must equal ``value`` (kind "eq") or have it as its
    magnitude (kind "abs"); the identity term is checked on its own.
    ``worst`` is the exact worst Pauli weight, or None where no closed
    form pins it.
    """
    problems: list[str] = []
    payload = json.loads(path.read_text())
    op = payload["operator"]
    terms = op["terms"]
    weights = [len(term["paulis"]) for term in terms]
    stats = {"terms": len(terms), "weight": sum(weights)}
    if op["n_qubits"] != n_qubits or payload["meta"]["n_qubits"] != n_qubits:
        problems.append(f"n_qubits {op['n_qubits']}, expected {n_qubits}")
    expected_terms = 1 + sum(classes.values())
    if len(terms) != expected_terms:
        problems.append(f"{len(terms)} terms, expected {expected_terms}")
    if any(term["coeff"][1] != 0 for term in terms):
        problems.append("non-Hermitian coefficient")
    t, u = float(coup.t), float(coup.u)
    meta = payload["meta"]
    if meta["t"] != t or meta["U"] != u or meta["eps"] != 0.0:
        problems.append("couplings in meta differ from the command line")
    identity = [term["coeff"][0] for term in terms if not term["paulis"]]
    sites = TRANSPILE_W * TRANSPILE_H
    if len(identity) != 1 or not _close(identity[0], u * sites / 4):
        problems.append(f"identity coefficient {identity}, expected {u * sites / 4}")
    seen = dict.fromkeys(classes, 0)
    for term in terms:
        if term["paulis"]:
            coeff = term["coeff"][0]
            match = [
                (kind, value)
                for kind, value in classes
                if _close(abs(coeff) if kind == "abs" else coeff, value)
            ]
            if not match:
                problems.append(f"coefficient {term['coeff'][0]} fits no term class")
                break
            seen[match[0]] += 1
    if seen != classes:
        problems.append(f"terms per coefficient class {seen}, expected {classes}")
    if worst is not None and max(weights) != worst:
        problems.append(f"worst weight {max(weights)}, expected {worst}")
    return problems, stats


def _encode_job(kind: str, coup: Couplings) -> Job:
    w, h = TRANSPILE_W, TRANSPILE_H
    edges, sites, plaquettes = lattice_counts(w, h)
    t, u = float(coup.t), float(coup.u)
    out = f"{kind}.json"
    argv = ("encode", "--w", str(w), "--h", str(h), "--encoding", kind)
    argv += ("--t", coup.t, "--u", coup.u, "--eps", "0", "--out", out)

    # Hopping signs depend on the encoding; each on-site n_a n_b expands to
    # (1 - Z_a - Z_b + Z_a Z_b) U / 4 in every encoding.
    hop_and_density = {
        ("abs", t / 2): 4 * edges,
        ("eq", -u / 4): 2 * sites,
        ("eq", u / 4): sites,
    }
    if kind != "lsfs":
        classes = hop_and_density
        worst = w + 1 if kind == "jw" else None

        def check(root: Path):
            return _check_operator(root / out, coup, 2 * w * h, classes, worst)

        return Job(f"encode_{kind}", argv, (out,), check)

    delta = 10.0 * max(t, u)
    classes = {**hop_and_density, ("abs", delta / 2): 2 * plaquettes}
    stab_out, plaq_out = "lsfs.stabilizers.json", "lsfs.plaquettes.csv"

    def check_lsfs(root: Path):
        problems, stats = _check_operator(
            root / out, coup, 2 * edges, classes, worst=8
        )
        sidecar = json.loads((root / stab_out).read_text())
        if (sidecar["count"], len(sidecar["stabilizers"])) != (plaquettes, plaquettes):
            problems.append(f"{sidecar['count']} stabilizers, expected {plaquettes}")
        if sidecar["n_qubits"] != edges:
            problems.append(f"stabilizer register {sidecar['n_qubits']}, expected {edges}")
        if any(len(s["terms"]) != 1 for s in sidecar["stabilizers"]):
            problems.append("a stabilizer is not a single Pauli string")
        if len(_csv_rows(root / plaq_out)) != plaquettes:
            problems.append("plaquette report row count differs from P")
        return problems, stats

    return Job("encode_lsfs", argv, (out, stab_out, plaq_out), check_lsfs)


# ---------------------------------------------------------------------------
# locality: the paper's tables, the segment sweep and the figure series.
# ---------------------------------------------------------------------------


def _check_report(rows: list[dict], closed: dict, unmeasured=()) -> list[str]:
    """Exact rows equal their formula, bound rows stay within it.

    ``closed`` maps (encoding, term_class) to a value fixed by the lattice
    alone, which the measured column must equal.  Only the encodings named
    in ``unmeasured`` may leave an exact or bound row blank.
    """
    problems: list[str] = []
    if not rows:
        return ["empty report"]
    for row in rows:
        key = (row["encoding"], row["term_class"])
        if row["exactness"] not in ("exact", "bound", "info"):
            problems.append(f"{key}: exactness {row['exactness']!r}")
        if row["exactness"] == "info":
            continue
        if not row["measured"]:
            if row["encoding"] not in unmeasured:
                problems.append(f"{key}: not measured")
            continue
        measured, formula = int(row["measured"]), int(row["formula"])
        if row["exactness"] == "exact" and measured != formula:
            problems.append(f"{key}: measured {measured} != exact {formula}")
        if row["exactness"] == "bound" and measured > formula:
            problems.append(f"{key}: measured {measured} > bound {formula}")
    measured = {(r["encoding"], r["term_class"]): r["measured"] for r in rows}
    for key, value in closed.items():
        if measured.get(key) != str(value):
            problems.append(f"{key}: measured {measured.get(key)}, expected {value}")
    return problems


def _tables_2d_job() -> Job:
    w, h = TABLE_W, TABLE_H
    edges, sites, _ = lattice_counts(w, h)
    closed = {
        ("JW", "vertical"): w + 1,
        ("JW", "qubits"): 2 * sites,
        ("BK", "qubits"): 2 * sites,
        ("SBK", "qubits"): 2 * sites,
        ("AF", "qubits"): 4 * (sites - 1),
        ("LSFS", "qubits"): 2 * edges,
    }

    def check(root: Path):
        rows = _csv_rows(root / "table_2d.csv")
        return _check_report(rows, closed), {"rows": len(rows)}

    argv = ("tables", "--w", str(w), "--h", str(h), "--format", "csv")
    return Job("tables_2d", argv + ("--out", "table_2d.csv"), ("table_2d.csv",), check)


def _tables_3d_job() -> Job:
    dim, w = TABLE_DIM, TABLE_SIDE
    closed = {("JW", "hop"): w ** (dim - 1) + 1, ("JW", "qubits"): 2 * w**dim}

    def check(root: Path):
        # LSFS operators are synthesized on rectangles only.
        rows = _csv_rows(root / "table_3d.csv")
        return _check_report(rows, closed, unmeasured={"LSFS"}), {"rows": len(rows)}

    argv = ("tables", "--dim", str(dim), "--w", str(w), "--format", "csv")
    return Job("tables_3d", argv + ("--out", "table_3d.csv"), ("table_3d.csv",), check)


def _sweep_job() -> Job:
    w = SWEEP_W

    def check(root: Path):
        text = (root / "sweep.csv").read_text()
        rows = _csv_rows(root / "sweep.csv")
        values = {int(r["segment_size"]): int(r["vertical_locality"]) for r in rows}
        problems = []
        if values.get(1) != w + 1:
            problems.append(f"segment size 1 gives {values.get(1)}, expected {w + 1}")
        optimum = [ln for ln in text.splitlines() if ln.startswith("# optimum")]
        best = int(optimum[0].rsplit("=", 1)[1]) if optimum else None
        if best is None or best != min(values.values()):
            problems.append(f"optimum line {optimum} disagrees with the rows")
        elif best > 2 * ceil_log2(w) + 1:
            problems.append(f"optimum {best} above 2*ceil_log2(w)+1")
        return problems, {"rows": len(rows)}

    return Job("sweep", ("sweep", "--w", str(w), "--out", "sweep.csv"), ("sweep.csv",), check)


def _fig6_job() -> Job:
    widths = range(FIG6_W_MIN, FIG6_W_MAX + 1)

    def check(root: Path):
        rows = _csv_rows(root / "fig6.csv")
        problems = []
        if len(rows) != 5 * len(widths):
            problems.append(f"{len(rows)} rows, expected {5 * len(widths)}")
        for row in rows:
            measured, formula = int(row["measured"]), int(row["formula"])
            if measured > formula:
                problems.append(f"{row['encoding']} w={row['w']}: {measured} > {formula}")
            if row["encoding"] == "JW" and measured != int(row["w"]) + 1:
                problems.append(f"JW w={row['w']}: measured {measured}")
        return problems, {"rows": len(rows)}

    argv = ("fig6", "--w-min", str(FIG6_W_MIN), "--w-max", str(FIG6_W_MAX))
    return Job("fig6", argv + ("--out", "fig6.csv"), ("fig6.csv",), check)


# ---------------------------------------------------------------------------
# oracle: the desk verification suite.
# ---------------------------------------------------------------------------


def _verify_job(seed: int) -> Job:
    def check(root: Path):
        report = json.loads((root / "verify.json").read_text())
        checks = report["checks"]
        problems = []
        if report["status"] != "pass":
            problems.append(f"suite status {report['status']!r}")
        if len(checks) != VERIFY_CHECKS:
            problems.append(f"{len(checks)} checks, expected {VERIFY_CHECKS}")
        bad = [c["name"] for c in checks if c["status"] != "pass"]
        if bad:
            problems.append(f"checks not passed: {bad}")
        return problems, {"checks_passed": len(checks) - len(bad)}

    argv = ("verify", "--seed", str(seed), "--trials", str(VERIFY_TRIALS))
    return Job("verify", argv + ("--out", "verify.json"), ("verify.json",), check)


def normalized_digest_text(name: str, text: str) -> str | None:
    """Text to digest for outputs known to be non-deterministic, else None.

    `verify --out` embeds each check's ``wall_time_s``; the rest of the
    report must still repeat byte for byte.
    """
    if name != "verify.json":
        return None
    report = json.loads(text)
    for check in report["checks"]:
        check.pop("wall_time_s")
    return json.dumps(report, sort_keys=True)


WORKLOADS = ("transpile", "locality", "oracle")


def jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass; the seed only shapes their arguments."""
    if workload == "transpile":
        coup = Couplings.from_seed(seed)
        return [_encode_job(kind, coup) for kind in ("jw", "bk", "sbk", "lsfs")]
    if workload == "locality":
        return [_tables_2d_job(), _tables_3d_job(), _sweep_job(), _fig6_job()]
    if workload == "oracle":
        return [_verify_job(seed)]
    raise ValueError(f"unknown workload {workload!r}")


# Every job of every workload, so traced metrics are reported uniformly.
ALL_JOB_NAMES = [job.name for w in WORKLOADS for job in jobs(w, 0)]
