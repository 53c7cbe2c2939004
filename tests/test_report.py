"""Report assembly and the witness contract."""

import pytest

from paraferm.report import make_report


def test_failing_entry_needs_a_witness():
    with pytest.raises(ValueError):
        make_report("demo", {}, [("holds", True, None), ("breaks", False, None)])


def test_failing_entry_with_witness_fails_the_report():
    r = make_report("demo", {}, [("breaks", False, {"got": 1})])
    assert r.status == "fail" and r.details[0]["witness"] == {"got": 1}
