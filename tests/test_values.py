"""Value semantics of the plain slotted classes: equality and hash over their fields."""

import pytest

from fermap.analysis import LocalityReport, ReportRow
from fermap.aux_fermion import AuxPlan
from fermap.encodings import EncodingSpec
from fermap.fenwick import FenwickForest
from fermap.lsfs import EdgeLayout, LsfsSpec
from fermap.models import FermionOperator, LatticeSpec
from fermap.pauli import PauliString
from fermap.verify import CheckResult, SuiteReport

FOREST = FenwickForest.build(4)
ROW = ReportRow("JW", "vertical", (2, 3), 6, 6, "2w", "exact")
CHECK = CheckResult("car", "pass", 0.0, 0.25, "ok")

# Per class: the fields of one instance, and another value for each field.
CASES = {
    PauliString: ({"n_qubits": 3, "x_mask": 1, "z_mask": 6, "phase_exp": 1},
                  {"n_qubits": 4, "x_mask": 3, "z_mask": 2, "phase_exp": 2}),
    FermionOperator: ({"n_modes": 2, "terms": ((1 + 0j, (0, 3)),)},
                      {"n_modes": 3, "terms": ((2 + 0j, (0, 3)),)}),
    LatticeSpec: ({"kind": "rectangle", "w": 3, "h": 2, "dim": 2, "ordering": "row_major"},
                  {"kind": "hypercube", "w": 4, "h": 1, "dim": 3, "ordering": "snake"}),
    FenwickForest: ({name: getattr(FOREST, name) for name in FenwickForest.__slots__},
                    {"n_sites": 5, "parent": (None,) * 4, "segments": ((0, 1),) * 4,
                     "roots": (0, 1, 2, 3), "children_mask": (0,) * 4,
                     "ancestor_mask": (0,) * 4, "parity_mask": (0, 1, 3, 7)}),
    EncodingSpec: ({"forest": FOREST}, {"forest": FenwickForest.build(4, [1, 1, 1, 1])}),
    EdgeLayout: ({"w": 3, "h": 2}, {"w": 2, "h": 3}),
    LsfsSpec: ({"layout": EdgeLayout(3, 2), "n_spins": 1},
               {"layout": EdgeLayout(2, 3), "n_spins": 2}),
    AuxPlan: ({"dims": (2, 2), "path": (0, 1, 3, 2), "degree": (2,) * 4,
               "path_degree": (1, 2, 1, 2), "nonlocal_degree": (1, 0, 1, 0),
               "aux_per_site": (1, 0, 1, 0), "formula_qubits": 12},
              {"dims": (4,), "path": (0, 1, 2, 3), "degree": (1, 2, 2, 1),
               "path_degree": (1, 2, 2, 1), "nonlocal_degree": (0,) * 4,
               "aux_per_site": (0,) * 4, "formula_qubits": 8}),
    ReportRow: ({name: getattr(ROW, name) for name in ReportRow.__slots__},
                {"encoding": "BK", "term_class": "horizontal", "dims": (3, 2), "measured": None,
                 "formula": None, "formula_expr": "w", "exactness": "bound"}),
    LocalityReport: ({"kind": "rectangle", "rows": [ROW]},
                     {"kind": "hypercube", "rows": []}),
    CheckResult: ({name: getattr(CHECK, name) for name in CheckResult.__slots__},
                  {"name": "lsfs", "status": "fail", "max_residual": 1.0, "wall_time_s": 0.5,
                   "detail": ""}),
    SuiteReport: ({"checks": [CHECK]}, {"checks": []}),
}
UNHASHABLE = (LocalityReport, SuiteReport)  # a list field, as in their mutable originals


@pytest.mark.parametrize("cls", CASES, ids=[cls.__name__ for cls in CASES])
class TestValueSemantics:
    def test_equal_fields_are_equal(self, cls):
        fields, _ = CASES[cls]
        a, b = cls(**fields), cls(**dict(fields))
        assert a is not b and a == b and not a != b
        assert a != object() and repr(a) == repr(b)
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert {a: 1}[b] == 1

    def test_each_field_counts(self, cls):
        fields, others = CASES[cls]
        assert set(fields) == set(others) == set(cls.__slots__) - {"__dict__"}
        a = cls(**fields)
        for name, value in others.items():
            assert a != cls(**{**fields, name: value}), name


def test_cached_properties_are_not_fields():
    a, b = LatticeSpec.rectangle(3, 2), LatticeSpec.rectangle(3, 2)
    assert a.n_sites == 6 and "n_sites" in vars(a) and "n_sites" not in vars(b)
    assert a == b and hash(a) == hash(b)


def test_check_result_dict_keeps_field_order():
    """The verify report's key order, which its digests pin."""
    assert list(CHECK.to_dict().items()) == [
        ("name", "car"), ("status", "pass"), ("max_residual", 0.0), ("wall_time_s", 0.25),
        ("detail", "ok")]
