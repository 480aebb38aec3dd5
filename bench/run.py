"""End-to-end benchmark of the `fermap` CLI, with an optional traced run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload transpile --seed 1 --seconds 44 --trace 0

Each pass runs the workload's jobs one at a time, each in a fresh
`python -m fermap.cli` process: a closed loop with a single client, so no
two `fermap` processes ever run at once.  Every pass also launches
`fermap --help` a few times to time the start-up cost every job pays.

The host is shared and its speed drifts by up to 2x, for seconds or for
minutes, so every launch is paired with the same launch of a frozen copy
of `fermap` (``bench/frozen``) right before or after it.  A timed metric
is the ratio of the two sides' summed times, per job, scaled by the frozen
copy's nominal time (``NOMINAL_S``).  The first pass runs whole; later
passes fill ``--seconds`` with the pairs that still fit.

With ``--trace 1`` the run makes one untraced pass and then two traced
passes, whatever ``--seconds`` says, in which each job runs through
``bench/tracer.py``; counts must repeat exactly between the traced passes.

Every job's outputs are checked against closed forms (``workloads.py``)
and digested; all passes of a run must produce identical digests.  A
record of the run, seed included, is written under ``.bench_work/``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
# A frozen copy of fermap, timed next to each launch so that the timed
# metrics are ratios to it, not to whatever speed the shared host has now.
FROZEN = BENCH / "frozen"
# Medians of each job's time, and of one `fermap --help`, over unpaired runs
# of ten seeds per workload of the frozen code on the machine in
# baseline.json.  They only set the scale: the timed metrics read as
# seconds on that machine.
NOMINAL_S = {
    "--help": 0.197,
    "encode_jw": 5.51, "encode_bk": 2.23, "encode_sbk": 2.45, "encode_lsfs": 1.47,
    "tables_2d": 1.95, "tables_3d": 0.465, "sweep": 1.46, "fig6": 2.94,
    "verify": 3.52,
}
SETUP_LAUNCHES = 2  # `fermap --help` launches per pass
RUN_LIMIT_S = 170.0  # every job is killed past this point of the run


def child_env(src: Path) -> dict:
    """The caller's environment, minus fermap settings, importing fermap from ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FERMAP_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    return env


@dataclass
class Launch:
    wall_s: float
    rc: int
    maxrss_mb: float
    timed_out: bool


def launch(
    cmd: list[str], cwd: Path, deadline: float, stderr_path: Path, src: Path = ROOT / "src"
) -> Launch:
    """Run one process to completion, reading its rusage with wait4."""
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    with open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=child_env(src), stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(elapsed, proc.returncode, usage.ru_maxrss / 1024.0, killed.is_set())


def file_digests(out_dir: Path, job: workloads.Job) -> dict[str, dict]:
    """sha256 of each output; known non-deterministic ones also get a normalized digest."""
    digests = {}
    for name in job.outputs:
        data = (out_dir / name).read_bytes()
        entry = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        normalized = workloads.normalized_digest_text(name, data.decode())
        if normalized is not None:
            entry["normalized_sha256"] = hashlib.sha256(normalized.encode()).hexdigest()
        digests[name] = entry
    return digests


@dataclass
class PassResult:
    traced: bool
    complete: bool = True  # False if the run's time left no room for some pair
    wall_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    frozen_setup_s: list[float] = field(default_factory=list)  # paired with setup_s
    peak_rss_mb: float = 0.0
    jobs: dict = field(default_factory=dict)  # name -> per-job record
    problems: list[str] = field(default_factory=list)
    traces: dict = field(default_factory=dict)  # name -> tracer record

    @property
    def failed(self) -> int:
        return sum(1 for rec in self.jobs.values() if not rec["ok"])


def content_key(digests: dict) -> tuple:
    """What must repeat between passes: normalized digests where defined."""
    return tuple(
        (name, entry.get("normalized_sha256", entry["sha256"]))
        for name, entry in sorted(digests.items())
    )


def run_pass(jobs, workload: str, traced: bool, deadline: float, checked: dict,
             index: int = 0, budget: float | None = None, estimates: dict | None = None):
    """One pass of the workload's jobs; ``checked`` caches check results by content.

    In a timed pass (one with ``estimates``) every launch is paired with the
    same launch of the frozen copy, right before or after it.  The order
    alternates between launches and between passes (``index``), so a drift
    in host speed weighs on both sides alike.  With a ``budget`` (a
    ``time.monotonic()`` value) the pass skips each pair that its last
    measured length, kept in ``estimates``, says would end past it.
    """
    base = WORK / workload / ("traced" if traced else "plain")
    shutil.rmtree(base, ignore_errors=True)
    out_dir, trace_dir, frozen_dir = base / "out", base / "trace", base / "frozen"
    for d in (out_dir, trace_dir, frozen_dir):
        d.mkdir(parents=True)
    stderr_path = base / "stderr.txt"
    result = PassResult(traced)
    cli = [sys.executable, "-m", "fermap.cli"]
    position = iter(range(SETUP_LAUNCHES + len(jobs)))

    def fits(item: str) -> bool:
        if budget is None or item not in estimates:
            return True
        return time.monotonic() + estimates[item] <= budget

    def paired(item: str, argv: list[str], cmd: list[str]) -> tuple[Launch, float]:
        """Launch ``cmd + argv``, and in a timed pass the frozen copy too."""
        if estimates is None:
            return launch(cmd + argv, out_dir, deadline, stderr_path), 0.0
        start = time.monotonic()
        frozen_first = (next(position) + index) % 2 == 1
        if frozen_first:
            ref = launch(cli + argv, frozen_dir, deadline, stderr_path, FROZEN)
        got = launch(cmd + argv, out_dir, deadline, stderr_path)
        if not frozen_first:
            ref = launch(cli + argv, frozen_dir, deadline, stderr_path, FROZEN)
        estimates[item] = time.monotonic() - start
        if ref.rc != 0:
            result.problems.append(f"frozen copy: {' '.join(argv[:1])} exited {ref.rc}")
        return got, ref.wall_s

    for _ in range(SETUP_LAUNCHES):
        if not fits("--help"):  # every job takes longer
            result.complete = False
            return result
        got, ref_s = paired("--help", ["--help"], cli)
        result.setup_s.append(got.wall_s)
        result.frozen_setup_s.append(ref_s)
        result.peak_rss_mb = max(result.peak_rss_mb, got.maxrss_mb)
        if got.rc != 0:
            result.problems.append(f"fermap --help exited {got.rc}")

    launches, frozen_s = {}, {}
    for job in jobs:
        if not fits(job.name):
            result.complete = False
            continue
        cmd = list(cli)
        if traced:
            trace_file = trace_dir / f"{job.name}.json"
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_file), "--"]
        launches[job.name], frozen_s[job.name] = paired(job.name, list(job.argv), cmd)
    result.wall_s = sum(got.wall_s for got in launches.values())

    for job in jobs:
        if job.name not in launches:
            continue
        got = launches[job.name]
        result.peak_rss_mb = max(result.peak_rss_mb, got.maxrss_mb)
        rec = {"wall_s": got.wall_s, "frozen_wall_s": frozen_s[job.name], "rc": got.rc,
               "maxrss_mb": got.maxrss_mb}
        problems = []
        if got.timed_out:
            problems.append("timed out")
        elif got.rc != 0:
            problems.append(f"exit code {got.rc}")
        else:
            try:
                rec["digests"] = file_digests(out_dir, job)
                key = (job.name, content_key(rec["digests"]))
                if key not in checked:
                    checked[key] = job.check(out_dir)
                problems, rec["stats"] = checked[key]
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            if traced and not problems:
                trace_file = trace_dir / f"{job.name}.json"
                result.traces[job.name] = json.loads(trace_file.read_text())
        rec["problems"] = problems
        rec["ok"] = not problems
        result.jobs[job.name] = rec
    return result


def compare_digests(reference: PassResult, other: PassResult) -> tuple[list[str], int]:
    """Jobs whose outputs differ from the reference pass, and raw digests that varied.

    Known-variable outputs are compared on their normalized digest, so a
    raw difference there is only counted.
    """
    problems, variable = [], 0
    for name, rec in other.jobs.items():
        ref = reference.jobs.get(name, {}).get("digests")
        digests = rec.get("digests")
        if ref is None or digests is None:
            continue
        if content_key(digests) != content_key(ref):
            problems.append(f"{name}: outputs differ between passes")
            rec["ok"] = False
        else:
            variable += sum(d["sha256"] != ref[out]["sha256"] for out, d in digests.items())
    return problems, variable


COUNTED = [
    "models.fermion_add.calls",
    "models.fermion_add.terms_revalidated",
    "pauli.op_add.calls",
    "pauli.op_add.terms_copied",
    "pauli.from_ops.calls",
    "pauli.from_ops.letters",
    "pauli.string_mul.calls",
    "pauli.op_mul.calls",
    "pauli.op_mul.products",
    "fenwick.parity_set.calls",
    "fenwick.ancestors.calls",
    "fenwick.lesser_cousins.calls",
    "fenwick.build.calls",
    "encodings.encode_model.calls",
    "encodings.majorana.builds",
    "encodings.hopping_op.calls",
    "lsfs.a_op.calls",
    "lsfs.b_op.calls",
    "analysis.measure.calls",
    "runtime.gc_collections",
    "trace.spans",
]
TIMED = [
    "models.hubbard",
    "models.fock_matrix",
    "pauli.op_add",
    "pauli.from_ops",
    "pauli.op_mul",
    "pauli.to_dense",
    "pauli.to_json_dict",
    "encodings.encode_model",
    "lsfs.hubbard_lsfs",
    "lsfs.stabilizers",
    "lsfs.codespace_projector",
    "analysis.measure",
    "analysis.table",
    "analysis.sweep",
    "analysis.fig6",
    "aux_fermion.plan",
    "verify.symbolic",
    "verify.dense",
]


def trace_metrics(plain: PassResult, traced: list[PassResult], problems: list[str]):
    """Per-layer metrics: cli rows from the plain pass, the rest from the traced ones."""
    metrics = {}
    for name in workloads.ALL_JOB_NAMES:
        rec = plain.jobs.get(name)
        metrics[f"cli.{name}.wall_s"] = (rec["wall_s"], "s") if rec else (0.0, "s")
    stats = [rec.get("stats", {}) for rec in plain.jobs.values()]
    # Outputs known to vary between runs (verify's timings) are left out, so
    # the count repeats exactly.
    digests = [d for rec in plain.jobs.values() for d in rec.get("digests", {}).values()]
    repeatable = [d for d in digests if "normalized_sha256" not in d]
    metrics["cli.output_bytes"] = (sum(d["bytes"] for d in repeatable), "bytes")
    metrics["cli.output_terms"] = (sum(s.get("terms", 0) for s in stats), "count")
    metrics["cli.output_weight"] = (sum(s.get("weight", 0) for s in stats), "count")

    def totals(p: PassResult):
        counts, seconds, self_s = {}, {}, dict.fromkeys(LAYERS, 0.0)
        for rec in p.traces.values():
            for k, v in rec["counts"].items():
                counts[k] = counts.get(k, 0) + v
            for k, v in rec["inclusive_s"].items():
                seconds[k] = seconds.get(k, 0.0) + v
            for k, v in rec["self_s"].items():
                self_s[k] += v
        return counts, seconds, self_s

    runs = [totals(p) for p in traced]
    counts = runs[0][0]
    for other, _, _ in runs[1:]:
        if other != counts:
            diff = sorted(k for k in set(counts) | set(other) if counts.get(k) != other.get(k))
            problems.append(f"traced counts differ between passes: {diff}")

    def seconds(name):
        return statistics.median(run[1].get(name, 0.0) for run in runs), "s"

    for name in COUNTED:
        metrics[name] = (counts.get(name, 0), "count")
    for name in TIMED:
        metrics[name + ".s"] = seconds(name)
    builds = counts.get("encodings.majorana.builds", 0)
    distinct = counts.get("encodings.majorana.distinct", 0)
    metrics["encodings.majorana.reuse_ratio"] = (distinct / builds if builds else 0.0, "ratio")
    passed = [rec.get("stats", {}).get("checks_passed", 0) for rec in traced[0].jobs.values()]
    metrics["verify.checks_passed"] = (sum(passed), "count")
    for layer in LAYERS:
        metrics[f"self.{layer}.s"] = (statistics.median(run[2][layer] for run in runs), "s")
    overhead = statistics.median(p.wall_s for p in traced) - plain.wall_s
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fermap" / "cli.py").is_file():
        print(f"bench: no fermap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    # Compile each copy's bytecode once, untimed: users pay it only on first use.
    for src in (ROOT / "src", FROZEN):
        warm = launch([sys.executable, "-m", "fermap.cli", "--help"], ROOT, deadline,
                      WORK / "warmup.stderr", src)
        if warm.rc != 0:
            print(f"bench: fermap --help from {src} exited {warm.rc}", file=sys.stderr)
            return 1

    jobs = workloads.jobs(args.workload, args.seed)
    plain, traced, checked = [], [], {}
    measure_start = time.monotonic()
    if args.trace:
        plain.append(run_pass(jobs, args.workload, False, deadline, checked))
        traced = [run_pass(jobs, args.workload, True, deadline, checked) for _ in range(2)]
    else:
        # The first pass always runs whole; later ones fill the time left.
        budget, estimates = measure_start + args.seconds, {}
        while not plain or plain[-1].complete:
            got = run_pass(jobs, args.workload, False, deadline, checked, len(plain),
                           budget if plain else None, estimates)
            if not got.setup_s:
                break
            plain.append(got)

    passes = plain + traced
    problems = [p for ps in passes for p in ps.problems]
    for p in passes:
        problems += [f"{n}: {'; '.join(r['problems'])}" for n, r in p.jobs.items() if r["problems"]]
    variable_outputs = 0
    for other in passes[1:]:
        mismatched, variable = compare_digests(passes[0], other)
        problems += mismatched
        variable_outputs += variable
    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(p.failed for p in passes)

    if args.trace:
        metrics = trace_metrics(plain[0], traced, problems)
    else:
        def at_nominal(item: str, pairs: list[tuple[float, float]]) -> float:
            return NOMINAL_S[item] * sum(t for t, _ in pairs) / sum(f for _, f in pairs)

        wall_s = sum(
            at_nominal(job.name, [(r["wall_s"], r["frozen_wall_s"])
                                  for p in plain if (r := p.jobs.get(job.name))])
            for job in jobs
        )
        setup_s = at_nominal("--help", [pair for p in plain
                                        for pair in zip(p.setup_s, p.frozen_setup_s)])
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in plain if p.complete), "MB"),
        }
    correct = not problems and failed == 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "jobs": [list(job.argv) for job in jobs],
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "setup_s": p.setup_s,
             "complete": p.complete, "frozen_setup_s": p.frozen_setup_s,
             "peak_rss_mb": p.peak_rss_mb, "jobs": p.jobs}
            for p in passes
        ],
        "failed_frac": failed / attempted,
        "variable_outputs": variable_outputs,
        "problems": problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"failed_frac={failed / attempted:.3f} record={record_path.relative_to(ROOT)}")
    if plain and plain[0].jobs:
        stats = [r.get("stats", {}) for r in plain[0].jobs.values()]
        print(f"output_terms={sum(s.get('terms', 0) for s in stats)} "
              f"output_weight={sum(s.get('weight', 0) for s in stats)} "
              f"known-variable outputs differing between passes={variable_outputs} "
              "(verify --out embeds wall_time_s)")
    for problem in problems:
        print(f"problem: {problem}")
    if args.trace and metrics:
        total = sum(metrics[f"self.{layer}.s"][0] for layer in LAYERS)
        print(f"self time by layer (traced, {total:.3f} s in fermap.cli.main):")
        for layer in sorted(LAYERS, key=lambda l: -metrics[f"self.{l}.s"][0]):
            value = metrics[f"self.{layer}.s"][0]
            print(f"  {layer:12s} {value:9.3f} s  {100 * value / total:5.1f}%")
        print(f"trace overhead {metrics['trace.overhead_s'][0]:.3f} s")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
