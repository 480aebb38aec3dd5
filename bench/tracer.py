"""Run one `fermap` CLI job in this interpreter with per-layer tracing.

Usage: python bench/tracer.py TRACE_OUT -- FERMAP_ARGS...

The wrappers are installed from outside the package: every wrapped
function is replaced under each name any `fermap` module bound it to, and
every wrapped method is replaced on its class.  Three kinds of wrapper:

* span: a coarse boundary, recorded individually (name, start, end, parent);
* timed: a hot call, aggregated (call count and outermost inclusive time);
* count: the hottest calls, counted only.

Spans and timed calls both carry a layer, so each layer's self time is its
wrapped time minus the wrapped time of the calls it made.  Everything is
kept in memory and written to TRACE_OUT as JSON when the job ends.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "cli",
    "models",
    "pauli",
    "fenwick",
    "encodings",
    "lsfs",
    "analysis",
    "aux_fermion",
    "verify",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent id]
        self.counts: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._depth: Counter = Counter()
        self._stack: list[list] = []  # [child seconds, span id] per open call
        self._majorana_keys: set = set()
        self._forests: dict = {}  # id -> (forest, key); holds forests alive

    def wrap(self, fn, name: str, layer: str, record: bool, extra=None):
        """Time ``fn`` under ``name``; ``record`` keeps each call as a span."""
        stack, spans, depth = self._stack, self.spans, self._depth
        counts, inclusive, self_s = self.counts, self.inclusive, self.self_s
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if extra is not None:
                args = extra(self, args)
            parent = stack[-1][1] if stack else None
            span_id = parent
            if record:
                span_id = len(spans)
                spans.append([span_id, name, 0.0, 0.0, parent])
            frame = [0.0, span_id]
            stack.append(frame)
            depth[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                depth[name] -= 1
                if not depth[name]:
                    inclusive[name] += elapsed
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if record:
                    spans[span_id][2] = start
                    spans[span_id][3] = start + elapsed

        return wrapper

    def count(self, fn, name: str):
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def majorana_key(self, args) -> tuple:
        """(forest, mode, c/d) identity without hashing the forest per call.

        Forests are kept alive here, so an id is never reused for another
        forest within the job.
        """
        spec, mode = args[0], args[1]
        forest = spec.forest
        entry = self._forests.get(id(forest))
        if entry is None:
            entry = self._forests[id(forest)] = (forest, (forest.n_sites, forest.segments))
        return entry[1], mode


# Extra per-call bookkeeping; each hook returns the (possibly
# materialized) positional arguments.


def _fermion_add(tracer, args):
    a, b = args
    if hasattr(b, "terms"):
        tracer.counts["models.fermion_add.terms_revalidated"] += len(a.terms) + len(
            b.terms
        )
    return args


def _op_add(tracer, args):
    a, b = args
    if hasattr(b, "_terms"):
        tracer.counts["pauli.op_add.terms_copied"] += len(a._terms)
    return args


def _op_mul(tracer, args):
    a, b = args
    if hasattr(b, "_terms"):
        tracer.counts["pauli.op_mul.products"] += len(a._terms) * len(b._terms)
    return args


def _from_ops(tracer, args):
    cls, n_qubits, *rest = args
    if rest:
        ops = rest[0]
        if not hasattr(ops, "items"):  # a Mapping is passed through as is
            ops = list(ops)  # one-shot iterables are consumed once, here
        tracer.counts["pauli.from_ops.letters"] += len(ops)
        rest[0] = ops
    return (cls, n_qubits, *rest)


def _majorana(flavor):
    def hook(tracer, args):
        tracer.counts["encodings.majorana.builds"] += 1
        tracer._majorana_keys.add((*tracer.majorana_key(args), flavor))
        return args

    return hook


def _replace_function(modules, owner, attr, make):
    """Swap ``owner.attr`` for its wrapper under every name bound to it."""
    original = getattr(owner, attr)
    wrapped = make(original)
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)


def _replace_method(cls, attr, make):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install(tracer: Tracer):
    """Wrap the public entry points of every `fermap` layer."""
    import fermap.cli  # noqa: F401  (imports every layer)
    from fermap import analysis, aux_fermion, encodings, fenwick, lsfs, models
    from fermap import pauli, verify

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "fermap"]

    def span(name, layer, extra=None):
        return lambda fn: tracer.wrap(fn, name, layer, True, extra)

    def timed(name, layer, extra=None):
        return lambda fn: tracer.wrap(fn, name, layer, False, extra)

    functions = [
        (models, "hubbard", span("models.hubbard", "models")),
        (models, "hubbard_terms", timed("models.hubbard_terms", "models")),
        (models, "fock_matrix", span("models.fock_matrix", "models")),
        (encodings, "encode_model", timed("encodings.encode_model", "encodings")),
        (encodings, "hopping_op", timed("encodings.hopping_op", "encodings")),
        (encodings, "majorana_c", timed("encodings.majorana_c", "encodings", _majorana("c"))),
        (encodings, "majorana_d", timed("encodings.majorana_d", "encodings", _majorana("d"))),
        (lsfs, "hubbard_lsfs", span("lsfs.hubbard_lsfs", "lsfs")),
        (lsfs, "single_spin_hamiltonian", span("lsfs.single_spin_hamiltonian", "lsfs")),
        (lsfs, "a_op", timed("lsfs.a_op", "lsfs")),
        (lsfs, "b_op", timed("lsfs.b_op", "lsfs")),
        (lsfs, "hopping_term", timed("lsfs.hopping_term", "lsfs")),
        (lsfs, "number_term", timed("lsfs.number_term", "lsfs")),
        (lsfs, "stabilizers", span("lsfs.stabilizers", "lsfs")),
        (lsfs, "codespace_projector", span("lsfs.codespace_projector", "lsfs")),
        (analysis, "measure", timed("analysis.measure", "analysis")),
        (analysis, "table_I", span("analysis.table", "analysis")),
        (analysis, "table_II", span("analysis.table", "analysis")),
        (analysis, "sbk_segment_sweep", span("analysis.sweep", "analysis")),
        (analysis, "fig6_series", span("analysis.fig6", "analysis")),
        (aux_fermion, "plan", timed("aux_fermion.plan", "aux_fermion")),
        (aux_fermion, "plan_hypercubic", timed("aux_fermion.plan", "aux_fermion")),
        (verify, "run_suite", span("verify.run_suite", "verify")),
    ]
    for name in ("check_car", "check_car_random_forests", "check_lsfs_algebra"):
        functions.append((verify, name, span("verify.symbolic", "verify")))
    for name in ("spectra_match", "lsfs_sector_match", "penalty_gap_check"):
        functions.append((verify, name, span("verify.dense", "verify")))
    for owner, attr, make in functions:
        _replace_function(modules, owner, attr, make)

    methods = [
        (models.FermionOperator, "__add__", timed("models.fermion_add", "models", _fermion_add)),
        (pauli.PauliString, "from_ops", timed("pauli.from_ops", "pauli", _from_ops)),
        (pauli.PauliString, "__mul__", lambda fn: tracer.count(fn, "pauli.string_mul")),
        (pauli.QubitOperator, "__add__", timed("pauli.op_add", "pauli", _op_add)),
        (pauli.QubitOperator, "__mul__", timed("pauli.op_mul", "pauli", _op_mul)),
        (pauli.QubitOperator, "__rmul__", timed("pauli.op_scale", "pauli")),
        (pauli.QubitOperator, "to_dense", span("pauli.to_dense", "pauli")),
        (pauli.QubitOperator, "to_json_dict", span("pauli.to_json_dict", "pauli")),
        (fenwick.FenwickForest, "build", timed("fenwick.build", "fenwick")),
        (fenwick.FenwickForest, "parity_set", timed("fenwick.parity_set", "fenwick")),
        (fenwick.FenwickForest, "ancestors", timed("fenwick.ancestors", "fenwick")),
        (fenwick.FenwickForest, "lesser_cousins", timed("fenwick.lesser_cousins", "fenwick")),
        (fenwick.FenwickForest, "children", timed("fenwick.children", "fenwick")),
    ]
    for cls, attr, make in methods:
        _replace_method(cls, attr, make)


def _gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def trace_job(argv: list[str]) -> tuple[int, dict]:
    """Run ``fermap.cli.main(argv)`` under a fresh tracer; return (rc, record)."""
    import fermap.cli

    tracer = Tracer()
    install(tracer)
    main = tracer.wrap(fermap.cli.main, "cli.main", "cli", True)
    gc_before = _gc_collections()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    counts = dict(tracer.counts)
    counts["encodings.majorana.distinct"] = len(tracer._majorana_keys)
    counts["runtime.gc_collections"] = _gc_collections() - gc_before
    counts["trace.spans"] = len(tracer.spans)
    record = {
        "rc": rc,
        "counts": counts,
        "inclusive_s": dict(tracer.inclusive),
        "self_s": {layer: tracer.self_s.get(layer, 0.0) for layer in LAYERS},
        "spans": tracer.spans,
    }
    return rc, record


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py TRACE_OUT -- FERMAP_ARGS...", file=sys.stderr)
        return 2
    out = Path(sys.argv[1])
    rc, record = trace_job(sys.argv[3:])
    out.write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main())
