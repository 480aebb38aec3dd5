"""Worst-case operator-locality measurement and the comparison tables.

Every value in the reports is either measured on actually generated
Pauli strings or quoted from a closed-form column.  Every measured
weight comes from one loop, ``_worst_weights``, over a lazy stream of
(term class, QubitOperator) pairs; ``measure`` encodes a lattice's
unit-coupling Hubbard terms one at a time (AF is read from its plan).
Rows are classified ``exact`` when the formula provably equals the
measurement, ``bound`` when the formula is only an upper bound for
nearest-neighbour models, and ``info`` for alternative formula variants
that are carried for comparison.

Spin handling: every spec ``measure`` builds repeats spin block 0 in
block 1, so a block-1 hop weighs what its block-0 copy does (the proof
sketch is in ``measure``).  The terms are therefore the block-0 stream,
``hubbard_terms(lattice, 1.0, 1.0, spins=(0,))``: block 0's hops and
every density-density term, which couples the blocks.  No block-1 hop
is built.  The tables build that stream once per lattice and hand it to
each encoding's ``measure``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from . import aux_fermion, lsfs
from .encodings import EncodingSpec, encode_model, hopping_op, model_encoding, sbk_row_segments
from .models import FermionOperator, LatticeSpec, hubbard_terms, versioned_csv
from .pauli import QubitOperator, _Value

CSV_SCHEMA_RECT = "encoding,term_class,w,h,measured,formula,exactness"
CSV_SCHEMA_HYPER = "encoding,term_class,D,w,measured,formula,exactness"


def floor_log2(n: int) -> int:
    if n < 1:
        raise ValueError("log of non-positive size")
    return n.bit_length() - 1


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("log of non-positive size")
    return (n - 1).bit_length()


class ReportRow(_Value):
    __slots__ = ("encoding", "term_class", "dims", "measured", "formula", "formula_expr",
                 "exactness")

    def __init__(self, encoding: str, term_class: str, dims: tuple, measured: Optional[int],
                 formula: Optional[int], formula_expr: str, exactness: str):
        self.encoding, self.term_class, self.dims = encoding, term_class, dims
        self.measured, self.formula = measured, formula
        self.formula_expr, self.exactness = formula_expr, exactness


class LocalityReport(_Value):
    __slots__ = ("kind", "rows")

    def __init__(self, kind: str, rows: list[ReportRow]):  # kind: "rectangle" | "hypercube"
        self.kind, self.rows = kind, rows

    def to_csv(self) -> str:
        schema = CSV_SCHEMA_RECT if self.kind == "rectangle" else CSV_SCHEMA_HYPER
        return versioned_csv(
            f"locality-report-{self.kind}",
            schema,
            (
                (r.encoding, r.term_class, *r.dims, r.measured, r.formula, r.exactness)
                for r in self.rows
            ),
        )

    def to_markdown(self) -> str:
        classes: list[str] = []
        for row in self.rows:
            if row.term_class not in classes:
                classes.append(row.term_class)
        encodings: list[str] = []
        for row in self.rows:
            if row.encoding not in encodings:
                encodings.append(row.encoding)
        cell: dict[tuple[str, str], str] = {}
        for row in self.rows:
            text = row.formula_expr
            if row.formula is not None:
                text += f" = {row.formula}"
            if row.measured is not None:
                text += f" (measured {row.measured})"
            key = (row.encoding, row.term_class)
            cell[key] = text if key not in cell else cell[key] + "; " + text
        lines = ["| Method | " + " | ".join(classes) + " |"]
        lines.append("|" + "---|" * (len(classes) + 1))
        for enc in encodings:
            cells = [cell.get((enc, klass), "-") for klass in classes]
            lines.append(f"| {enc} | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def _worst_weights(stream: Iterable[tuple[str, QubitOperator]]) -> dict[str, int]:
    """Worst Pauli weight per term class; a zero operator weighs nothing."""
    worst: dict[str, int] = {}
    for klass, op in stream:
        if not op.is_zero():  # the one LSFS hop of a two-site strip encodes to zero
            worst[klass] = max(worst.get(klass, 0), op.max_weight())
    return worst


def measure(
    encoding: str,
    lattice: LatticeSpec,
    segment_size: Optional[int] = None,
    terms: Optional[Sequence[tuple[str, FermionOperator]]] = None,
) -> dict[str, int]:
    """Worst Pauli weight per term class of one encoding on the lattice.

    One loop over the lattice's block-0 stream of unit-coupling Hubbard
    terms, each encoded alone; AF is read from its plan.  ``terms`` is
    that stream when the caller has built it for another encoding; LSFS
    reads it only if the lattice's modes are its row-major sites.
    Every spec built here repeats block 0 in block 1 (``model_encoding``'s
    forests repeat the per-block segment list, ``LsfsSpec(layout, 2)`` the
    edge table on qubits [E, 2E)), so a block-1 hop's c_i and d_j are its
    block-0 copy's shifted by one block, times earlier-root Z factors that
    both share and that cancel in c_i d_j: the same strings, shifted.
    """
    name = encoding.lower()
    if name == "af":
        if lattice.kind == "rectangle":
            return aux_fermion.locality_profile(aux_fermion.plan(lattice.w, lattice.h))
        return aux_fermion.locality_profile(
            aux_fermion.plan_hypercubic(lattice.dim, lattice.w)
        )
    if name == "lsfs":
        if lattice.kind != "rectangle":
            raise ValueError("loop-stabilized layout is defined on rectangles")
        spec = lsfs.LsfsSpec(lsfs.EdgeLayout(lattice.w, lattice.h), 2)
        if lattice.site_order != tuple(range(lattice.n_sites)):
            # LSFS qubits follow the geometry: its modes are the row-major sites.
            lattice, terms = LatticeSpec.rectangle(lattice.w, lattice.h, "row_major"), None
    elif name in ("jw", "bk", "sbk"):
        spec = model_encoding(name, lattice, segment_size)
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    if terms is None:
        terms = hubbard_terms(lattice, 1.0, 1.0, spins=(0,))
    return _worst_weights((klass, encode_model(spec, piece)) for klass, piece in terms)


# ---------------------------------------------------------------------------
# Table I (2D rectangle), Table II (hypercube), figure series.
# ---------------------------------------------------------------------------


def _report(
    kind: str, dims: tuple[int, int], cells: dict, table: Sequence[tuple]
) -> LocalityReport:
    """Rows of ``(encoding, term_class, formula, expression, exactness)``.

    Each measured cell is read as ``cells[encoding][term_class]`` and is
    blank where that is absent; a row with a sixth entry carries its
    measured cell itself.
    """
    rows = []
    for enc, klass, formula, expr, exactness, *cell in table:
        value = cell[0] if cell else cells.get(enc, {}).get(klass)
        rows.append(ReportRow(enc, klass, dims, value, formula, expr, exactness))
    return LocalityReport(kind, rows)


def table_I(w: int, h: int, measured: bool = True) -> LocalityReport:
    """Locality/qubit table of the five schemes on a w x h rectangle.

    Degenerate lattices (either side below 2) yield an empty report.
    The short side is taken as the width, matching the w <= h convention
    of the closed forms.
    """
    if w < 2 or h < 2:
        return LocalityReport("rectangle", [])
    w, h = min(w, h), max(w, h)
    lattice = LatticeSpec.rectangle(w, h, "snake")
    sites = w * h
    cells = {}
    if measured:  # w <= h, so the snake order is row-major and LSFS shares the terms
        terms = hubbard_terms(lattice, 1.0, 1.0, spins=(0,))
        for enc in ("JW", "BK", "SBK"):
            cells[enc] = {**measure(enc.lower(), lattice, terms=terms), "qubits": 2 * sites}
        lsfs_qubits = 2 * lsfs.EdgeLayout(w, h).n_edges
        cells["LSFS"] = {**measure("lsfs", lattice, terms=terms), "qubits": lsfs_qubits}
    plan = aux_fermion.plan(w, h)
    cells["AF"] = {**aux_fermion.locality_profile(plan), "qubits": plan.total_qubits}

    fl, cl = floor_log2(sites), ceil_log2(sites)
    # SBK rows are bounds; the tabulated floor-log forms are only valid
    # bounds at power-of-two widths, so the ceiling forms from the
    # halved-segment analysis ride along whenever they differ.
    flw, clw = floor_log2(w), ceil_log2(w)
    sbk_floor = "bound" if flw == clw else "info"
    sbk_ceiling = [] if flw == clw else [
        ("SBK", "horizontal", 2 * clw, "2*ceil_log2(w)", "bound"),
        ("SBK", "vertical", 2 * clw + 1, "2*ceil_log2(w)+1", "bound"),
    ]
    # LSFS: boundary strings are shorter, so the constants are attained
    # only once the lattice is wide enough in the relevant direction.
    # The horizontal hop expansion is 5-local by construction; the
    # headline table's 7 covers both hop orientations and is kept as a
    # bound.
    table = [
        ("JW", "density-density", 2, "2", "exact"),
        ("JW", "horizontal", 2, "2", "exact"),
        ("JW", "vertical", w + 1, "w+1", "exact"),
        ("JW", "qubits", 2 * sites, "2wh", "exact"),
        ("BK", "density-density", 2 * fl + 2, "2*floor_log2(wh)+2", "exact"),
        ("BK", "horizontal", fl + cl, "floor_log2(wh)+ceil_log2(wh)", "bound"),
        ("BK", "vertical", fl + cl, "floor_log2(wh)+ceil_log2(wh)", "bound"),
        ("BK", "qubits", 2 * sites, "2wh", "exact"),
        ("SBK", "density-density", 2 * flw + 2, "2*floor_log2(w)+2", "bound"),
        ("SBK", "horizontal", flw + clw, "floor_log2(w)+ceil_log2(w)", sbk_floor),
        ("SBK", "vertical", 2 * flw + 1, "2*floor_log2(w)+1", sbk_floor),
        *sbk_ceiling,
        ("SBK", "qubits", 2 * sites, "2wh", "exact"),
        ("AF", "density-density", 2, "2", "exact"),
        ("AF", "horizontal", 2, "2", "exact"),
        ("AF", "vertical", 4, "4", "exact"),
        ("AF", "qubits", 4 * sites - 4, "4(wh-1)", "exact"),
        ("LSFS", "density-density", 8, "8", "exact" if w >= 3 else "bound"),
        ("LSFS", "horizontal", 5, "5", "exact" if w >= 4 and h >= 3 else "bound"),
        ("LSFS", "horizontal", 7, "7", "bound"),
        ("LSFS", "vertical", 7, "7", "exact" if w >= 3 and h >= 4 else "bound"),
        ("LSFS", "qubits", 4 * sites - 2 * w - 2 * h, "4wh-2w-2h", "exact"),
    ]
    return _report("rectangle", (w, h), cells, table)


def _with_hop(per_class: dict[str, int], qubits: int) -> dict[str, int]:
    """Per-class cells plus ``hop``, the worst hopping class, and ``qubits``."""
    hops = [v for k, v in per_class.items() if k != "density-density"]
    return {**per_class, "hop": max(hops), "qubits": qubits}


def table_II(dim: int, w: int, measured: bool = True) -> LocalityReport:
    """Worst-case hopping locality and qubit counts on hypercubic lattices.

    Measured columns are produced for the tree encodings unless
    ``measured`` is off; the loop-stabilized scheme is only
    synthesizable here in two dimensions, and the auxiliary-fermion
    values come from the resource planner.  Formula variants that the
    closed forms quote inconsistently are carried as ``info`` rows.
    """
    if dim < 1 or w < 2:
        return LocalityReport("hypercube", [])
    sites = w**dim
    lattice = LatticeSpec.hypercube(dim, w)
    cells = {}
    if measured:
        terms = hubbard_terms(lattice, 1.0, 1.0, spins=(0,))
        for enc in ("JW", "BK", "SBK"):
            cells[enc] = _with_hop(measure(enc.lower(), lattice, terms=terms), 2 * sites)
        if dim == 2:
            square = LatticeSpec.rectangle(w, w)
            cells["LSFS"] = _with_hop(measure("lsfs", square), 2 * lsfs.EdgeLayout(w, w).n_edges)
    plan = aux_fermion.plan_hypercubic(dim, w)
    af_profile = aux_fermion.locality_profile(plan)
    cells["AF"] = _with_hop(af_profile, plan.total_qubits)
    # The 2D-2 variant row shows the planner's smallest hop locality (its
    # hop-text-variant), not the worst one that its class reads.
    af_variant = [] if dim == 1 else [
        ("AF", "hop", 2 * dim - 2, "2D-2", "info",
         min(v for k, v in af_profile.items() if k != "density-density")),
    ]

    # The floor-log table forms are bounds only when the register size
    # is a power of two; the floor+ceil form is the one that always holds.
    fl, cl = floor_log2(sites), ceil_log2(sites)
    bk_ceiling = [] if fl == cl else [
        ("BK", "hop", fl + cl, "floor_log2(w^D)+ceil_log2(w^D)", "bound"),
    ]
    # The slab segmentation degenerates in one dimension (slabs of one
    # site are the JW limit), so the closed form is informational there.
    slab = w ** (dim - 1)
    fl_slab, cl_slab = floor_log2(slab), ceil_log2(slab)
    sbk_floor = "bound" if fl_slab == cl_slab and dim > 1 else "info"
    sbk_ceiling = [] if fl_slab == cl_slab else [
        ("SBK", "hop", 2 * cl_slab + 1, "2*ceil_log2(w^(D-1))+1", "bound"),
    ]
    table = [
        ("JW", "hop", slab + 1, "w^(D-1)+1", "exact"),
        ("JW", "qubits", 2 * sites, "2w^D", "exact"),
        ("BK", "hop", 2 * fl, "2*floor_log2(w^D)", "bound" if fl == cl else "info"),
        *bk_ceiling,
        ("BK", "qubits", 2 * sites, "2w^D", "exact"),
        ("SBK", "hop", 2 * fl_slab + 1, "2*floor_log2(w^(D-1))+1", sbk_floor),
        *sbk_ceiling,
        ("SBK", "qubits", 2 * sites, "2w^D", "exact"),
        ("AF", "hop", 2 * dim, "2D", "exact"),
        *af_variant,
        ("AF", "qubits", 2 * dim * sites, "2D*w^D", "bound"),
        ("LSFS", "hop", 4 * dim - 1, "4D-1", "bound"),
        ("LSFS", "density-density", 4 * dim, "4D", "bound"),
        ("LSFS", "qubits", 2 * dim * (w - 1) * slab, "2D(w-1)w^(D-1)", "exact"),
    ]
    return _report("hypercube", (dim, w), cells, table)


def sbk_segment_sweep(
    w: int, segment_sizes: Optional[Sequence[int]] = None
) -> list[tuple[int, int]]:
    """Worst vertical-hop locality versus the per-row tree size.

    Measured on two adjacent rows of width w with one spin sector: the
    shared earlier-root Z factors cancel inside hopping pairs, so extra
    rows and the second spin block cannot change the worst case.
    """
    if w < 2:
        raise ValueError("sweep needs rows of width at least 2")
    if segment_sizes is None:
        segment_sizes = [1 << k for k in range((w).bit_length())]
        segment_sizes = sorted({min(s, w) for s in segment_sizes} | {w})
    results = []
    for size in segment_sizes:
        spec = EncodingSpec.from_segments(sbk_row_segments(w, 2, size))
        hops = (("vertical", hopping_op(spec, c, w + c)) for c in range(w))
        results.append((int(size), _worst_weights(hops)["vertical"]))
    return results


def sweep_optimum(sweep: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The optimal segment size: largest size attaining the minimum.

    Larger trees that tie on locality win because they need fewer
    segment roots.
    """
    best_value = min(v for _, v in sweep)
    best_size = max(s for s, v in sweep if v == best_value)
    return best_size, best_value


def sweep_csv(w: int, sweep: Sequence[tuple[int, int]]) -> str:
    return versioned_csv(
        "segment-sweep",
        "w,segment_size,vertical_locality",
        ((w, size, value) for size, value in sweep),
    )


def fig6_series(w_values: Sequence[int]) -> list[dict]:
    """Worst-case locality across all term classes on square lattices.

    Read off ``table_I(w, w)``: per encoding, in the table's order, the
    largest measured value over its term-class rows and the largest
    formula over those rows that are not ``info``.  Sides below 2 give
    an empty table and so no points.
    """
    out = []
    for w in w_values:
        rows = [r for r in table_I(w, w).rows if r.term_class != "qubits"]
        for enc in dict.fromkeys(r.encoding for r in rows):
            mine = [r for r in rows if r.encoding == enc]
            out.append(
                {
                    "encoding": enc,
                    "w": w,
                    "measured": max(r.measured for r in mine),
                    "formula": max(r.formula for r in mine if r.exactness != "info"),
                }
            )
    return out


def fig6_csv(rows: Sequence[dict]) -> str:
    return versioned_csv(
        "fig6-series",
        "encoding,w,measured,formula",
        ((r["encoding"], r["w"], r["measured"], r["formula"]) for r in rows),
    )
