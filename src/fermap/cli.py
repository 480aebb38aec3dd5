"""Batch command-line front end for encoding, analysis, and verification.

Subcommands: encode, analyze, tables, sweep, fig6, verify, plan-aux.
Every output is a file (JSON or CSV with a versioned header comment)
written atomically; repeated runs with the same configuration produce
byte-identical files, except the ``verify --out`` report, which records
each check's ``wall_time_s``.  ``encode`` splices the operator text of
``QubitOperator.to_json_text``, whose tests hold it byte-identical to
``json.dumps(..., sort_keys=True, indent=1)``.  A run reads each number it
uses, and only those, from its flag or ``--model`` entry (never both), else
from FERMAP_T, _U, _EPS, _DELTA, _DENSE_CAP or _SEED, else its default.  A
non-finite t, U, eps or delta exits 2 before anything is written.

Start-up is much of a short job: each command imports only the layers it
runs, none loads numpy or the data-class module (see ``fermap.pauli``), and
``json`` (~3 ms) loads only where JSON is read or written (``encode``,
``verify``, JSON ``plan-aux``, ``--model``), never in ``tables``, ``sweep``,
``fig6`` or CSV ``analyze``.

Exit codes: 0 success (including a partial verify run with skipped
checks), 1 verification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from .pauli import DENSE_CAP_DEFAULT


class ConfigError(Exception):
    """Bad configuration content: reported on stderr with exit code 2."""


def _env(flag, name: str, parse, default):
    """``flag`` if given, else FERMAP_<name> parsed by ``parse``, else ``default``."""
    raw = os.environ.get(f"FERMAP_{name}")
    try:
        return flag if flag is not None else default if raw is None else parse(raw)
    except ValueError:
        msg = f"FERMAP_{name}={raw!r} is not a valid {parse.__name__}"
        raise ConfigError(msg) from None


def _write_atomic(path: Path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        os.unlink(tmp_name)
        raise


def _emit(text: str, out: Optional[str]):
    if out:
        _write_atomic(Path(out), text)
    else:
        sys.stdout.write(text)


def _load_model(args):
    """The lattice from --model JSON or the lattice flags.  The file's couplings
    replace encode's coupling flags, which must then not be given."""
    from .models import LatticeSpec
    if args.model:
        import json
        flags = ("w", "h", "dim", "ordering")
        given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
        if given:
            raise ConfigError(f"--model replaces the lattice flags; drop {', '.join(given)}")
        try:
            data = json.loads(Path(args.model).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read model file: {exc}") from exc
        try:
            lat = data["lattice"]
            if lat["kind"] == "rectangle":
                ordering = data.get("ordering", "snake")
                spec = LatticeSpec.rectangle(_entry(lat, "w", int), _entry(lat, "h", int), ordering)
            elif lat["kind"] == "hypercube":
                if "ordering" in data:
                    raise ConfigError("hypercube models take no ordering: sites are row-major")
                spec = LatticeSpec.hypercube(_entry(lat, "dim", int), _entry(lat, "w", int))
            else:
                raise ConfigError(f"unknown lattice kind {lat['kind']!r}")
            if "u" in data:  # the lower-case spelling of U; "U" wins if both are set
                data.setdefault("U", data.pop("u"))
            for flag, key, _ in _COUPLINGS:
                if key in data and hasattr(args, flag):
                    if getattr(args, flag) is not None:
                        raise ConfigError(f"--model sets {key}; drop --{flag}")
                    setattr(args, flag, _entry(data, key, float))
            return spec
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed model config: {exc}") from exc
    dim, w, h = _lattice_flags(args, "lattices")
    if dim is not None:
        return LatticeSpec.hypercube(dim, w)
    return LatticeSpec.rectangle(w, h, args.ordering or "snake")


def _entry(table: dict, key: str, kind):
    """``kind(table[key])`` for a JSON number, whole if ``kind`` is int: a bool, a string
    or a fraction raises instead of being coerced."""
    value = table[key]
    number = kind(value)  # first, so inf, NaN and huge ints keep their messages
    if type(value) not in (int, float) or kind is int and number != value:
        import json
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {noun}, not {json.dumps(value)}")
    return number


# Each coupling's flag, --model key and default.
_COUPLINGS = (("t", "t", 1.0), ("u", "U", 1.0), ("eps", "eps", 0.0))

# The --encoding values of each subcommand, and each encoding flag with the
# values that read it; other values exit 2.
_ENCODINGS = {"encode": ("jw", "bk", "sbk", "forest", "lsfs"),
              "analyze": ("jw", "bk", "sbk", "af", "lsfs", "all")}
_FLAG_READERS = {
    "segments": ("forest",),
    "segment_size": ("sbk", "all"),
    "spin": ("lsfs",),
    "delta": ("lsfs",),
    "ordering": ("jw", "bk", "sbk", "forest", "all"),
}


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"coupling {name} must be finite, not {value}")
    return value


def _reject_unread_flags(args, kind: str):
    if kind not in _ENCODINGS[args.command]:
        raise ConfigError(f"unknown encoding {args.encoding!r}")
    unread = [flag for flag, readers in _FLAG_READERS.items() if kind not in readers]
    given = [f"--{f.replace('_', '-')}" for f in unread if getattr(args, f, None) is not None]
    if given:
        raise ConfigError(f"--encoding {kind} does not read {', '.join(given)}")


def _lattice_flags(args, noun: str) -> tuple[Optional[int], int, Optional[int]]:
    """(dim, w, None) for a hypercube, (None, w, h) for a rectangle."""
    if args.dim is None:
        if args.w is None or args.h is None:
            raise ConfigError(f"rectangular {noun} need --w and --h")
        return None, args.w, args.h
    if args.w is None:
        raise ConfigError(f"hypercubic {noun} need --w")
    if args.h is not None:
        raise ConfigError(f"hypercubic {noun} take no --h: every side is --w")
    if getattr(args, "ordering", None) is not None:
        raise ConfigError(f"hypercubic {noun} take no --ordering: their sites are row-major")
    return args.dim, args.w, None


def _parse_segments(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad segment list {raw!r}") from exc


def _json_with_last(head: dict, key: str, text: str) -> str:
    """``json.dumps(head | {key: value}, sort_keys=True, indent=1) + "\\n"``
    from ``text``, the value's text at depth 1; ``key`` sorts after ``head``'s."""
    import json
    start = json.dumps(head, sort_keys=True, indent=1)[:-2]  # drop "\n}"
    return f'{start},\n "{key}": {text}\n}}\n'


def _meta_json(meta: dict, operator) -> str:
    return _json_with_last({"meta": meta}, "operator", operator.to_json_text(1))


# ---------------------------------------------------------------------------
# Subcommand bodies, each importing only the layers it runs.
# ---------------------------------------------------------------------------


def _cmd_encode(args) -> int:
    from .encodings import EncodingSpec, encode_model, model_encoding
    from .models import hubbard
    kind = args.encoding.lower()
    _reject_unread_flags(args, kind)
    lattice = _load_model(args)
    t, u, eps = [_finite(key, _env(getattr(args, flag), key.upper(), float, default))
                 for flag, key, default in _COUPLINGS]
    if kind == "lsfs":
        from . import lsfs
        if lattice.kind != "rectangle":
            raise ConfigError("the loop-stabilized encoding needs a rectangle")
        default = lsfs.default_penalty(t, u, eps)
        delta = _finite("delta", _env(args.delta, "DELTA", float, default))
        layout = lsfs.EdgeLayout(lattice.w, lattice.h)
        if args.spin == "single":
            if u != 0.0:
                raise ConfigError("single-spin encoding has no density coupling; set U=0")
            operator = lsfs.single_spin_hamiltonian(layout, t, eps, delta)
        else:
            operator = lsfs.hubbard_lsfs(lattice.w, lattice.h, t, u, eps, delta)
        extra = {"spin": args.spin or "both", "delta": delta}
    else:
        if kind in ("jw", "bk", "sbk"):
            enc = model_encoding(kind, lattice, args.segment_size)
        else:
            if not args.segments:
                raise ConfigError("--encoding forest needs --segments")
            sizes = _parse_segments(args.segments)
            if sum(sizes) != lattice.n_modes:
                raise ConfigError(
                    f"segments sum to {sum(sizes)}, model has {lattice.n_modes} modes"
                )
            enc = EncodingSpec.from_segments(sizes)
        operator = encode_model(enc, hubbard(lattice, t, u, eps))
        segments = [stop - start for start, stop in enc.forest.segments]
        extra = {"segments": segments, "ordering": lattice.ordering}
    meta = {
        "encoding": kind,
        "lattice": (
            {"kind": "rectangle", "w": lattice.w, "h": lattice.h}
            if lattice.kind == "rectangle"
            else {"kind": "hypercube", "dim": lattice.dim, "w": lattice.w}
        ),
        "t": t,
        "U": u,
        "eps": eps,
        "n_qubits": operator.n_qubits,
        **extra,
    }
    out = args.out or ("lsfs_operator.json" if kind == "lsfs" else None)
    _emit(_meta_json(meta, operator), out)
    if kind == "lsfs":
        from .models import versioned_csv
        stabs = lsfs.stabilizers(layout)
        items = ",\n  ".join(s.to_json_text(2) for s in stabs)
        head = {"blocks": 1 if args.spin == "single" else 2, "n_qubits": layout.n_edges,
                "count": len(stabs)}
        text = _json_with_last(head, "stabilizers", f"[\n  {items}\n ]" if stabs else "[]")
        _write_atomic(Path(out).with_suffix(".stabilizers.json"), text)
        rows = [(" ".join(str(v) for v in plq), (x | z).bit_count(), 1 - exp)
                for plq, (x, z, exp) in zip(layout.plaquettes(), layout.loops)]
        text = versioned_csv("plaquette-report", "plaquette,weight,sign", rows)
        _write_atomic(Path(out).with_suffix(".plaquettes.csv"), text)
    return 0


def _cmd_analyze(args) -> int:
    from . import analysis
    from .models import versioned_csv
    kind = args.encoding.lower()
    _reject_unread_flags(args, kind)
    lattice = _load_model(args)
    if kind != "all":
        names = [kind]
    else:  # the encodings that exist on this lattice
        names = ["jw", "bk", "sbk"]
        if min(lattice.sides) >= 2:
            names.append("af")  # AF plans need every side >= 2
        if lattice.kind == "rectangle" and lattice.n_sites >= 2:
            names.append("lsfs")  # an edge layout needs two vertices
    rows = []
    for name in names:
        per_class = analysis.measure(name, lattice, args.segment_size)
        rows += [(name, klass, per_class[klass]) for klass in sorted(per_class)]
    header = "encoding,term_class,measured"
    _emit(versioned_csv("measured-locality", header, rows), args.out)
    return 0


def _cmd_tables(args) -> int:
    from . import analysis
    dim, w, h = _lattice_flags(args, "tables")
    if dim is not None:
        report = analysis.table_II(dim, w, measured=args.measure)
    else:
        report = analysis.table_I(w, h, measured=args.measure)
    if not report.rows:
        raise ConfigError("degenerate lattice: tables need sides >= 2 and --dim >= 1")
    text = report.to_csv() if args.format == "csv" else report.to_markdown()
    _emit(text, args.out)
    return 0


def _cmd_sweep(args) -> int:
    from . import analysis
    sizes = _parse_segments(args.segments) if args.segments else None
    sweep = analysis.sbk_segment_sweep(args.w, sizes)
    size, value = analysis.sweep_optimum(sweep)
    text = analysis.sweep_csv(args.w, sweep)
    text += f"# optimum segment_size={size} vertical_locality={value}\n"
    _emit(text, args.out)
    return 0


def _cmd_fig6(args) -> int:
    from . import analysis
    if args.w_min > args.w_max:
        raise ConfigError("--w-min must not exceed --w-max")
    rows = analysis.fig6_series(range(args.w_min, args.w_max + 1))
    if not rows:
        raise ConfigError("degenerate range: fig6 needs --w-max >= 2")
    _emit(analysis.fig6_csv(rows), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite  # loads the synthesis layers and lsfs, but not analysis
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    cap = _env(args.dense_cap, "DENSE_CAP", int, DENSE_CAP_DEFAULT)
    if cap < 0:
        raise ConfigError(f"--dense-cap (FERMAP_DENSE_CAP) must be at least 0, not {cap}")
    report = run_suite(
        symbolic_only=(args.suite == "symbolic"),
        cap=cap,
        seed=_env(args.seed, "SEED", int, 0),
        forest_trials=args.trials,
    )
    text = report.to_json() + "\n"
    _emit(text, args.out)
    if args.out:
        summary = [f"{c.name}: {c.status}" for c in report.checks]
        sys.stdout.write("\n".join(summary) + f"\nstatus: {report.status}\n")
    return 0 if report.status in ("pass", "partial") else 1


def _cmd_plan_aux(args) -> int:
    from . import aux_fermion
    from .models import versioned_csv
    dim, w, h = _lattice_flags(args, "plans")
    plan = aux_fermion.plan_hypercubic(dim, w) if dim is not None else aux_fermion.plan(w, h)
    profile = aux_fermion.locality_profile(plan)
    if args.format == "json":
        import json
        payload = {
            "dims": list(plan.dims),
            "path": list(plan.path),
            "degree": list(plan.degree),
            "nonlocal_degree": list(plan.nonlocal_degree),
            "aux_per_site": list(plan.aux_per_site),
            "per_spin_qubits": plan.per_spin_qubits,
            "total_qubits": plan.total_qubits,
            "formula_qubits": plan.formula_qubits,
            "locality": profile,
        }
        _emit(json.dumps(payload, sort_keys=True, indent=1) + "\n", args.out)
        return 0
    header = "site,degree,path_degree,nonlocal_degree,aux"
    columns = (plan.degree, plan.path_degree, plan.nonlocal_degree, plan.aux_per_site)
    text = versioned_csv("aux-plan", header, zip(range(plan.n_sites), *columns))
    text += f"# total_qubits={plan.total_qubits} formula={plan.formula_qubits}\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _add_lattice_flags(sub, replaces="--w, --h, --dim, --ordering"):
    sub.add_argument("--model", help=f"model JSON file; replaces {replaces}")
    sub.add_argument("--w", type=int, help="lattice width")
    sub.add_argument("--h", type=int, help="lattice height")
    sub.add_argument("--dim", type=int, help="hypercube dimension (with --w)")
    sub.add_argument("--ordering", choices=("snake", "row_major"),
                     help="default: snake, a raster along the short side (not a boustrophedon)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermap",
        description="Fermion-to-qubit transpilation and locality analysis",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    enc = subparsers.add_parser("encode", help="encode a lattice model to qubits")
    _add_lattice_flags(enc, "--w, --h, --dim, --ordering and each of --t, --u, --eps it sets")
    enc.add_argument("--t", type=float)
    enc.add_argument("--u", type=float)
    enc.add_argument("--eps", type=float)
    enc.add_argument("--encoding", default="jw", help=" | ".join(_ENCODINGS["encode"]))
    enc.add_argument("--segments", help="comma-separated forest segment sizes")
    enc.add_argument("--segment-size", type=int, help="sbk row-chunk size")
    enc.add_argument("--spin", choices=("both", "single"), help="lsfs only; default: both")
    enc.add_argument(
        "--delta", type=float, help="lsfs only; default: FERMAP_DELTA, else 10x largest coupling"
    )
    enc.add_argument("--out")
    enc.set_defaults(func=_cmd_encode)

    ana = subparsers.add_parser("analyze", help="measured localities at unit couplings")
    _add_lattice_flags(ana)
    ana.add_argument("--encoding", default="all", help=" | ".join(_ENCODINGS["analyze"]))
    ana.add_argument("--segment-size", type=int, help="sbk row-chunk size")
    ana.add_argument("--out")
    ana.set_defaults(func=_cmd_analyze)

    tab = subparsers.add_parser("tables", help="locality/qubit comparison tables")
    tab.add_argument("--w", type=int)
    tab.add_argument("--h", type=int)
    tab.add_argument("--dim", type=int)
    tab.add_argument("--format", choices=("md", "csv"), default="md")
    tab.add_argument(
        "--measure", action=argparse.BooleanOptionalAction, default=True
    )
    tab.add_argument("--out")
    tab.set_defaults(func=_cmd_tables)

    swp = subparsers.add_parser("sweep", help="segment-size locality sweep")
    swp.add_argument("--w", type=int, required=True)
    swp.add_argument("--segments", help="comma-separated sizes to sweep")
    swp.add_argument("--out")
    swp.set_defaults(func=_cmd_sweep)

    fig = subparsers.add_parser("fig6", help="worst-case locality vs lattice size")
    fig.add_argument("--w-min", type=int, default=2)
    fig.add_argument("--w-max", type=int, default=8)
    fig.add_argument("--out")
    fig.set_defaults(func=_cmd_fig6)

    ver = subparsers.add_parser("verify", help="run the verification suite")
    ver.add_argument("--suite", choices=("desk", "symbolic"), default="desk")
    ver.add_argument("--dense-cap", type=int)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--out")
    ver.set_defaults(func=_cmd_verify)

    aux = subparsers.add_parser("plan-aux", help="auxiliary-fermion resource plan")
    aux.add_argument("--w", type=int)
    aux.add_argument("--h", type=int)
    aux.add_argument("--dim", type=int)
    aux.add_argument("--format", choices=("json", "csv"), default="json")
    aux.add_argument("--out")
    aux.set_defaults(func=_cmd_plan_aux)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, IndexError, OSError) as exc:
        print(f"fermap: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
