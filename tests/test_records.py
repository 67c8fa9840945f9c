"""The repr and str of the report records, pinned byte for byte.

Reports, suite entries and matrix documents are what library users print
and log; a change of record type must not change these strings.
"""

import pytest

from psipascal.engine import MUST_PASS, SuiteEntry
from psipascal.matrices import MatrixDocument
from psipascal.report import Counterexample, IdentityReport

CE = Counterexample((1, 2), "1 + q", "q", "instance n=2")
REPORT = IdentityReport("eq4", {"sequence": "q", "n": "2"}, False, CE, 0.25)
ENTRY = SuiteEntry(REPORT, "q-symbolic", MUST_PASS)

CE_REPR = "Counterexample(location=(1, 2), lhs='1 + q', rhs='q', detail='instance n=2')"
REPORT_REPR = (
    "IdentityReport(identity='eq4', params={'sequence': 'q', 'n': '2'}, passed=False, "
    f"counterexample={CE_REPR}, elapsed=0.25)"
)
ENTRY_REPR = f"SuiteEntry(report={REPORT_REPR}, family='q-symbolic', expected='must-pass')"


def test_counterexample_repr_and_str():
    assert repr(CE) == CE_REPR
    assert str(CE) == "at (1, 2): lhs=1 + q rhs=q [instance n=2]"


def test_identity_report_repr_and_str():
    assert repr(REPORT) == REPORT_REPR
    assert str(REPORT) == REPORT_REPR


def test_suite_entry_repr_and_str():
    assert repr(ENTRY) == ENTRY_REPR
    assert str(ENTRY) == ENTRY_REPR


DOC = MatrixDocument("K", "q", 2, None, (("0",), ("1", "0")))


def test_matrix_document_repr():
    assert repr(DOC) == (
        "MatrixDocument(kind='K', sequence='q', size=2, x=None, entries=(('0',), ('1', '0')))"
    )


@pytest.mark.parametrize(
    "record, name, value",
    [(CE, "lhs", "0"), (REPORT, "passed", True), (ENTRY, "family", "rational"), (DOC, "size", 3)],
    ids=["Counterexample", "IdentityReport", "SuiteEntry", "MatrixDocument"],
)
def test_record_fields_cannot_be_rewritten(record, name, value):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    assert repr(record) == before


def test_records_default_their_tail():
    report = IdentityReport("eq4", {}, True)
    assert report.counterexample is None and report.elapsed == 0.0
    assert Counterexample((0,), "1", "0").detail is None
