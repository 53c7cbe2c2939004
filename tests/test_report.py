"""Report assembly and the witness contract."""

from fractions import Fraction as Q

import pytest

from paraferm.report import make_report


def test_failing_entry_needs_a_witness():
    with pytest.raises(ValueError):
        make_report("demo", {}, [("holds", True, None), ("breaks", False, None)])


def test_failing_entry_with_witness_fails_the_report():
    r = make_report("demo", {}, [("breaks", False, {"got": 1})])
    assert r.status == "fail" and r.details[0]["witness"] == {"got": 1}


def test_report_is_immutable():
    r = make_report("demo", {}, [("holds", True, None)])
    for name in ("status", "details"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    assert r.status == "pass"


def test_failing_report_json_is_pinned():
    # rationals print exactly, tuples as lists, a nested report's to_obj() in
    # place; keys sorted, no spaces
    inner = make_report(
        "inner", {"k": 3, "t": Q(1, 2)}, [("holds", True, None), ("breaks", False, {"at": Q(-7, 3)})]
    )
    witness = {"weight": Q(123, 20), "lhs": Q(266), "pair": (1, Q(2, 3)), "inner": inner.to_obj()}
    r = make_report(
        "demo",
        {"k": 3, "max_weight": Q(21, 2)},
        [("exact", True, None), ("breaks", False, witness)],
        identity="serialiser pin",
    )
    assert r.to_json() == (
        '{"check":"demo","details":[{"name":"exact","ok":true},{"name":"breaks","ok":false,'
        '"witness":{"inner":{"check":"inner","details":[{"name":"holds","ok":true},'
        '{"name":"breaks","ok":false,"witness":{"at":"-7/3"}}],"identity":"",'
        '"params":{"k":3,"t":"1/2"},"status":"fail"},"lhs":"266","pair":[1,"2/3"],'
        '"weight":"123/20"}}],"identity":"serialiser pin",'
        '"params":{"k":3,"max_weight":"21/2"},"status":"fail"}'
    )


def test_shared_witness_object_json_is_pinned():
    # one object reached twice is shared, not circular: written out in full each time
    pairs = ((1, 0), (0, 2))
    shared = {"pairs": pairs, "weight": Q(1, 15)}
    r = make_report(
        "demo",
        {"k": 3},
        [("breaks", False, {"first": shared, "both": [shared, pairs]})],
        identity="shared pin",
    )
    assert r.to_json() == (
        '{"check":"demo","details":[{"name":"breaks","ok":false,"witness":{"both":'
        '[{"pairs":[[1,0],[0,2]],"weight":"1/15"},[[1,0],[0,2]]],"first":'
        '{"pairs":[[1,0],[0,2]],"weight":"1/15"}}}],"identity":"shared pin",'
        '"params":{"k":3},"status":"fail"}'
    )


def test_circular_witness_raises_recursion_error():
    # a report is a tree; json's cycle check is off, so a cycle recurses
    loop = []
    loop.append(loop)
    r = make_report("demo", {}, [("breaks", False, {"loop": loop})])
    with pytest.raises(RecursionError):
        r.to_json()
