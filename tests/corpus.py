"""Output corpus: the bytes of every CLI output, pinned over fixed argument sets.

Each case runs ``fermap.cli.main`` in-process, in an empty working directory
holding only the ``INPUTS`` model files, with every FERMAP_ variable cleared
and the case's own set.  A case is pinned by its exit code, its stderr in
full (a ``fermap: ...`` message or nothing), and the sha256 of its stdout and
of every file it wrote; ``verify`` reports are hashed without their
``wall_time_s``.  A run that argparse ends (the ``--help`` pages and
argparse's own usage errors) is pinned by its exit code only, because
argparse words them differently across Python versions.

    python tests/corpus.py            # check every case against the pins
    python tests/corpus.py --repin    # rewrite corpus_pins.json, print the changed cases

A re-pin is an output change: the change that needs one names its changed cases.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

PINS = Path(__file__).with_name("corpus_pins.json")

# Model files every case finds in its working directory.
INPUTS = {
    "rect.json": '{"lattice": {"kind": "rectangle", "w": 3, "h": 2}, "t": 0.5, "u": 2}',
    "rowmajor.json": '{"lattice": {"kind": "rectangle", "w": 4, "h": 2}, "ordering": "row_major"}',
    "cube.json": '{"lattice": {"kind": "hypercube", "dim": 3, "w": 2}, "U": 3}',
    "half.json": '{"lattice": {"kind": "rectangle", "w": 2.5, "h": 2}}',
    "bool.json": '{"lattice": {"kind": "rectangle", "w": 2, "h": 2}, "t": true}',
    "ordered-cube.json":
        '{"lattice": {"kind": "hypercube", "dim": 2, "w": 2}, "ordering": "snake"}',
    "ring.json": '{"lattice": {"kind": "ring", "w": 4}}',
    "broken.json": '{"lattice": ',
}

# name -> command line; leading FERMAP_NAME=VALUE words set variables.
CASES = {
    # encode: every encoding in both orderings, hypercubes, LSFS spins and strips.
    "encode-jw-2x2-stdout": "encode --w 2 --h 2",
    "encode-jw-4x3-snake": "encode --w 4 --h 3 --encoding jw --out op.json",
    "encode-jw-4x3-row-major": "encode --w 4 --h 3 --ordering row_major --out op.json",
    "encode-bk-3x3-snake": "encode --w 3 --h 3 --encoding bk --out op.json",
    "encode-bk-3x2-row-major":
        "encode --w 3 --h 2 --encoding bk --ordering row_major --out op.json",
    "encode-sbk-4x4-snake": "encode --w 4 --h 4 --encoding sbk --out op.json",
    "encode-sbk-5x3-row-major-size-2":
        "encode --w 5 --h 3 --encoding sbk --ordering row_major --segment-size 2 --out op.json",
    "encode-forest-2x2-snake":
        "encode --w 2 --h 2 --encoding forest --segments 4,2,2 --out op.json",
    "encode-forest-3x2-row-major":
        "encode --w 3 --h 2 --encoding FOREST --segments 6,6 --ordering row_major --out op.json",
    "encode-jw-cube-3x2": "encode --dim 3 --w 2 --t 1.5 --u 4 --eps 0.25 --out op.json",
    "encode-bk-square-2x3": "encode --dim 2 --w 3 --encoding bk --out op.json",
    "encode-sbk-cube-3x3": "encode --dim 3 --w 3 --encoding sbk --out cube-op.json",
    "encode-lsfs-3x3-default-out": "encode --w 3 --h 3 --encoding lsfs",
    "encode-lsfs-5x3-eps": "encode --w 5 --h 3 --eps 0.3 --encoding lsfs --out op.json",
    "encode-lsfs-4x3-delta": "encode --w 4 --h 3 --encoding lsfs --delta 7.5 --t 0.5 --out op.json",
    "encode-lsfs-3x3-single":
        "encode --w 3 --h 3 --encoding lsfs --spin single --u 0 --out op.json",
    "encode-lsfs-3x1-strip": "encode --w 3 --h 1 --encoding lsfs --out strip.json",
    "encode-lsfs-1x1": "encode --w 1 --h 1 --encoding lsfs --out op.json",
    "encode-model-rect": "encode --model rect.json --encoding bk --out op.json",
    "encode-model-row-major": "encode --model rowmajor.json --t 2 --out op.json",
    "encode-model-cube": "encode --model cube.json --out op.json",
    "encode-env-couplings":
        "FERMAP_T=2 FERMAP_U=0.5 FERMAP_EPS=0.1 encode --w 2 --h 2 --out op.json",
    "encode-env-delta-lsfs": "FERMAP_DELTA=3 encode --w 2 --h 2 --encoding lsfs --out op.json",
    # encode: negative couplings (and a negative zero) on every term kind.
    "encode-bk-5x4-negative": "encode --w 5 --h 4 --encoding bk --t -0.7 --u -2.5 --eps -0.3",
    "encode-sbk-4x3-negative":
        "encode --w 4 --h 3 --encoding sbk --t -1.25 --u -0.5 --eps -0.75 --out op.json",
    "encode-forest-3x2-negative": "encode --w 3 --h 2 --encoding forest --segments 5,3,4 "
                                  "--t -0.3 --u -3 --eps -1.5 --out op.json",
    "encode-jw-3x3-negative-zero": "encode --w 3 --h 3 --t -0.0 --u -1 --eps -0.0 --out op.json",
    "encode-lsfs-3x2-negative-delta":
        "encode --w 3 --h 2 --encoding lsfs --t -0.8 --u -1.5 --eps -0.2 --delta -4 --out op.json",
    "encode-lsfs-3x3-single-negative": "encode --w 3 --h 3 --encoding lsfs --spin single --u 0 "
                                       "--t -0.6 --eps -0.9 --delta -2.5 --out op.json",
    # encode: each exit-2 message class.
    "error-unknown-encoding": "encode --w 2 --h 2 --encoding parity",
    "error-unread-flag": "encode --w 2 --h 2 --encoding jw --delta 5",
    "error-forest-no-segments": "encode --w 2 --h 2 --encoding forest",
    "error-segment-sum": "encode --w 2 --h 2 --encoding forest --segments 3,3",
    "error-bad-segment-list": "encode --w 2 --h 2 --encoding forest --segments 4,x",
    "error-missing-h": "encode --w 2",
    "error-cube-missing-w": "encode --dim 3",
    "error-h-beside-dim": "encode --dim 2 --w 3 --h 3",
    "error-ordering-beside-dim": "encode --dim 2 --w 3 --ordering row_major",
    "error-non-finite": "encode --w 2 --h 2 --t nan",
    "error-single-spin-u": "encode --w 2 --h 2 --encoding lsfs --spin single",
    "error-lsfs-cube": "encode --dim 2 --w 2 --encoding lsfs",
    "error-bad-side": "encode --w 0 --h 2",
    "error-model-beside-flags": "encode --model rect.json --w 3",
    "error-model-coupling-beside-flag": "encode --model rect.json --t 3",
    "error-model-fraction": "encode --model half.json",
    "error-model-bool": "encode --model bool.json",
    "error-model-cube-ordering": "encode --model ordered-cube.json",
    "error-model-kind": "encode --model ring.json",
    "error-model-unreadable": "encode --model broken.json",
    "error-env-malformed": "FERMAP_T=abc encode --w 2 --h 2",
    # analyze
    "analyze-3x3-all": "analyze --w 3 --h 3",
    "analyze-6x3-row-major-all":
        "analyze --w 6 --h 3 --ordering row_major --segment-size 4 --out m.csv",
    "analyze-5x3-lsfs": "analyze --w 5 --h 3 --encoding lsfs",
    "analyze-2x1-strip": "analyze --w 2 --h 1 --encoding ALL",
    "analyze-cube-all": "analyze --dim 3 --w 2",
    "analyze-model-af": "analyze --model rect.json --encoding af --out m.csv",
    "error-analyze-af-strip": "analyze --w 3 --h 1 --encoding af",
    "error-analyze-wide-segment": "analyze --w 3 --h 3 --encoding sbk --segment-size 8",
    # tables
    "tables-4x4-md": "tables --w 4 --h 4",
    "tables-4x3-csv-unmeasured": "tables --w 4 --h 3 --format csv --no-measure --out t.csv",
    "tables-cube-3x3": "tables --dim 3 --w 3 --format csv",
    "error-tables-degenerate": "tables --w 1 --h 1",
    # sweep and fig6
    "sweep-8": "sweep --w 8",
    "sweep-12-sizes": "FERMAP_T=abc sweep --w 12 --segments 2,3,4 --out s.csv",
    "error-sweep-wide-segment": "sweep --w 4 --segments 4,8",
    "fig6-default": "fig6 --out f.csv",
    "error-fig6-order": "fig6 --w-min 5 --w-max 3",
    "error-fig6-empty": "fig6 --w-min 0 --w-max 1",
    # verify: desk, symbolic, each dense cap branch, stdout, the input rule.
    "verify-symbolic": "verify --suite symbolic --out v.json",
    "verify-cap-0": "verify --dense-cap 0 --trials 5 --out v.json",
    "verify-cap-4": "verify --dense-cap 4 --trials 10 --out v.json",
    "verify-cap-8-stdout": "verify --dense-cap 8 --trials 10 --seed 3",
    "verify-env-cap": "FERMAP_DENSE_CAP=6 FERMAP_SEED=2 verify --trials 7 --out v.json",
    "error-verify-trials": "verify --trials 0",
    "error-verify-cap": "verify --dense-cap -1",
    "error-verify-env-seed": "FERMAP_SEED=1.5 verify --trials 3",
    # plan-aux: rectangles and hypercubes, JSON and CSV.
    "plan-aux-3x3-json": "plan-aux --w 3 --h 3",
    "plan-aux-5x4-csv": "plan-aux --w 5 --h 4 --format csv --out p.csv",
    "plan-aux-4x3-csv": "plan-aux --w 4 --h 3 --format csv",
    "plan-aux-2x6-json": "plan-aux --w 6 --h 2 --out p.json",
    "plan-aux-cube-3x3-json": "plan-aux --dim 3 --w 3",
    "plan-aux-4d-2-csv": "plan-aux --dim 4 --w 2 --format csv",
    "plan-aux-line-5-json": "plan-aux --dim 1 --w 5",
    "error-plan-aux-strip": "plan-aux --w 1 --h 3",
    # The benchmark's jobs, as bench/workloads.py builds them for seed 1.
    **{f"bench-encode-{kind}": f"encode --w 20 --h 20 --encoding {kind} --t 0.634364 "
       f"--u 5.618584 --eps 0 --out {kind}.json" for kind in ("jw", "bk", "sbk", "lsfs")},
    "bench-tables-2d": "tables --w 16 --h 16 --format csv --out table_2d.csv",
    "bench-tables-3d": "tables --dim 3 --w 4 --format csv --out table_3d.csv",
    "bench-sweep": "sweep --w 512 --out sweep.csv",
    "bench-fig6": "fig6 --w-min 2 --w-max 12 --out fig6.csv",
    "bench-verify": "verify --seed 1 --trials 400 --out verify.json",
    # argparse: help pages and usage errors, pinned by exit code.
    "help": "--help",
    **{f"help-{command}": f"{command} --help" for command in
       ("encode", "analyze", "tables", "sweep", "fig6", "verify", "plan-aux")},
    "usage-no-command": "",
    "usage-bad-choice": "encode --w 2 --h 2 --ordering spiral",
    "usage-bad-int": "tables --w two --h 2",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _drop_wall_times(text: str) -> str:
    """A ``verify`` JSON report without its ``wall_time_s``; other text unchanged."""
    if not text.startswith("{"):
        return text
    report = json.loads(text)
    for check in report["checks"]:
        del check["wall_time_s"]
    return json.dumps(report, indent=2) + "\n"


def run_case(line: str, workdir: Path) -> dict:
    """The pin record of one command line, run in the empty directory ``workdir``."""
    from fermap.cli import main

    words = line.split()
    env = dict(word.split("=", 1) for word in words if word.startswith("FERMAP_"))
    argv = words[len(env):]
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    saved_env, saved_cwd = dict(os.environ), os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        for name in [name for name in os.environ if name.startswith("FERMAP_")]:
            del os.environ[name]
        os.environ.update(env)
        os.chdir(workdir)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # only argparse exits
                return {"exit": exc.code}
    finally:
        os.chdir(saved_cwd)
        os.environ.clear()
        os.environ.update(saved_env)
    normalize = _drop_wall_times if argv[0] == "verify" else str
    files = {}
    for path in sorted(workdir.iterdir()):
        data = path.read_bytes()
        if path.name not in INPUTS or INPUTS[path.name].encode() != data:
            files[path.name] = _sha(normalize(data.decode()).encode())
    record = {"exit": code, "stderr": err.getvalue(),
              "stdout": _sha(normalize(out.getvalue()).encode())}
    return {**record, "files": files} if files else record


def load_pins() -> dict:
    return json.loads(PINS.read_text())


def run_all(root: Path) -> dict:
    """The record of every case, each run in its own new directory under ``root``."""
    records = {}
    for name, line in CASES.items():
        (root / name).mkdir()
        records[name] = run_case(line, root / name)
    return records


def differing(pins: dict, records: dict) -> list[str]:
    return sorted(name for name in pins.keys() | records.keys()
                  if pins.get(name) != records.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repin", action="store_true", help="rewrite the pins")
    args = parser.parse_args(argv)
    pins = load_pins() if PINS.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        records = run_all(Path(root))
    changed = differing(pins, records)
    for name in changed:
        state = "gone" if name not in records else "new" if name not in pins else "changed"
        print(f"{name}: {state}")
    if args.repin:
        PINS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"{len(records)} cases pinned, {len(changed)} changed")
        return 0
    print(f"{len(records)} cases, {len(changed)} differ from the pins")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
