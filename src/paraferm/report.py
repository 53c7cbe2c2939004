"""Machine-readable outcome of one verification check."""

from __future__ import annotations

import json
from typing import NamedTuple

PASS = "pass"
FAIL = "fail"
PASS_TRUNCATED = "pass-up-to-truncation"


class Report(NamedTuple):
    """Outcome of one named check, an immutable named tuple built by
    `make_report`.

    ``status`` is one of pass / fail / pass-up-to-truncation; a fail always
    carries a witness in ``details``.  Output is deterministic for fixed
    inputs.
    """

    check: str
    params: dict
    status: str
    identity: str
    details: list

    @property
    def passed(self) -> bool:
        return self.status in (PASS, PASS_TRUNCATED)

    def to_obj(self) -> dict:
        return self._asdict()

    def to_json(self) -> str:
        """Canonical JSON; rationals (any non-JSON value) as their exact str.
        A report is a tree, so json's cycle check is off: a cycle would raise RecursionError."""
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"),
                          default=str, check_circular=False)


def make_report(check, params, entries, identity="", truncated=False) -> Report:
    """Assemble a Report from (name, ok, witness) triples.

    ``witness`` may be None for passing entries only; a failing entry without
    one raises ValueError.  A truncated computation that otherwise passes is
    reported as pass-up-to-truncation.
    """
    details = []
    all_ok = True
    for name, ok, witness in entries:
        if not ok and witness is None:
            raise ValueError(f"{check}: failing entry {name!r} carries no witness")
        item = {"name": name, "ok": bool(ok)}
        if witness is not None:
            item["witness"] = witness
        details.append(item)
        all_ok = all_ok and ok
    if not all_ok:
        status = FAIL
    elif truncated:
        status = PASS_TRUNCATED
    else:
        status = PASS
    return Report(check=check, params=params, status=status, identity=identity, details=details)
