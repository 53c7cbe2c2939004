"""Batch verification front end.

Every identity of the suite is a named subcommand producing one
machine-readable report per check (JSON lines by default, a table with
--format table); `all` runs the whole suite over a range of levels.  Exit
code 0 when everything passes, 1 on any failure, 2 on usage errors.

The table CHECKS declares each check once, and the subcommands, `run_check`
and `run_all` read it.  Every param is an integer, validated before any
computation: a missing, unknown or out-of-range one is a usage error.
`paraferm CHECK --help` shows the ranges; below, (default) and [truncation]:

    ope                  --k >= 2 [4]
    singular-vector      --k >= 3, --seed (0) [4]
    ek-power             --k >= 2 [at least k + 2]
    lk0-decomposition    --k >= 1, --max-weight >= 1 [10]
    lki-decomposition    --k >= 1, 0 <= --i <= k (every i), --max-weight >= 1 [10]
    string-dual-route    --k >= 2, 0 <= --i <= k (0), 0 <= --j < k (every j),
                         --max-weight >= 1 [6 for k <= 3, else 4]
    top-weight-match     --k >= 2
    identify             --k >= 3
    w1inf-generation     --max >= 2 (20)
    intertwiner-leading  --k >= 1 [3]
    all                  --kmax >= 3 (4), --max-weight >= 1 [6], --seed (0)

PARAFERM_TRUNCATION (a positive integer) overrides the truncation fallbacks;
--max-weight takes precedence where a check has it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

from . import characters, fusion_identify, lattice_fock, w1inf_symbols
from .errors import BadParams, UnknownCheck
from .report import PASS_TRUNCATED, Report, make_report


def _truncation_default(fallback: int) -> int:
    env = os.environ.get("PARAFERM_TRUNCATION")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise BadParams(f"PARAFERM_TRUNCATION must be an integer, got {env!r}") from exc
        # Stored weights lie strictly below the truncation, so T <= 0 holds nothing.
        if value <= 0:
            raise BadParams(f"PARAFERM_TRUNCATION must be positive, got {env!r}")
        return value
    return fallback


class Param(NamedTuple):
    """An integer param allowed in lo <= value <= k + hi_k, k being the level
    declared before it; a bound of None does not apply.  A value left out
    takes ``default``; None there leaves the choice to the check."""

    lo: int | None = None
    hi_k: int | None = None
    default: int | None = None
    required: bool = False

    def bounds(self, key: str) -> str:
        text = key if self.lo is None else f"{self.lo} <= {key}"
        if self.hi_k is not None:
            text += f" <= k{self.hi_k:+d}" if self.hi_k else " <= k"
        return text


class Check(NamedTuple):
    """``run(**params)`` returns the report.  The fallback ``truncation(k)``, which
    PARAFERM_TRUNCATION overrides, fills max_weight where declared, else truncation."""

    help: str
    run: Callable[..., Report]
    params: dict[str, Param]
    truncation: Callable[[int | None], int] | None = None


def _level(lo: int) -> Param:
    return Param(lo, required=True)


def _singular_vector(k: int, seed: int, truncation: int) -> Report:
    cv = lattice_fock.conformal_vectors(k, truncation)
    r1 = lattice_fock.singular_vector_check(cv["W3"], cv["omega_para"])
    dim = lattice_fock.singular_space_dimension(k)
    r2 = lattice_fock.virasoro_bracket_check(k, truncation=max(truncation, 5), seed=seed)
    entries = [
        (
            "W3 is singular for the coset conformal vector",
            r1.passed,
            None if r1.passed else r1.to_obj(),
        ),
        (
            "weight-3 singular space in the commutant is one-dimensional",
            dim == 1,
            None if dim == 1 else {"dimension": dim},
        ),
        ("Virasoro bracket spot checks", r2.passed, None if r2.passed else r2.to_obj()),
    ]
    return make_report(
        "singular-vector",
        {"k": k, "truncation": truncation, "seed": seed},
        entries,
        identity="uniqueness and singularity of the weight-3 coset primary",
        truncated=PASS_TRUNCATED in (r1.status, r2.status),
    )


def _lki_decomposition(k: int, i: int | None, max_weight: int) -> Report:
    if i is not None:
        return characters.decomposition_check_lki(k, i, max_weight)
    entries = []
    for ii in range(k + 1):
        r = characters.decomposition_check_lki(k, ii, max_weight)
        entries.append((f"module {ii} decomposes", r.passed, None if r.passed else r.to_obj()))
    return make_report(
        "lki-decomposition",
        {"k": k, "i": "all", "max_weight": max_weight},
        entries,
        identity="graded dimensions of every affine module equal its coset-sum",
    )


def _w1inf_generation(max: int) -> Report:
    chains = w1inf_symbols.derivation_chains({1, 2}, max)
    reached = {1, 2} | set(chains)
    want = set(range(1, max + 1))
    ok = reached == want
    witness = {"reached": sorted(reached)}
    if ok:
        witness["witness_products"] = {str(t): list(w) for t, w in sorted(chains.items())}
    else:
        witness["missing"] = sorted(want - reached)
        witness["extra"] = sorted(reached - want)
    entries = [(f"weight-2 and weight-3 symbols generate J^1..J^{max}", ok, witness)]
    return make_report(
        "w1inf-generation",
        {"max": max},
        entries,
        identity="generation of the graded symbol algebra from two seeds",
    )


CHECKS = {
    "ope": Check("bracket relations of the level-k generators",
                 lattice_fock.ope_check, {"k": _level(2)}, lambda k: 4),
    "singular-vector": Check("weight-3 coset primary: singular and unique", _singular_vector,
                             {"k": _level(3), "seed": Param(default=0)}, lambda k: 4),
    "ek-power": Check("highest nonzero power of E(-1) on the vacuum",
                      lattice_fock.ek_power_check, {"k": _level(2)}, lambda k: k + 2),
    "lk0-decomposition": Check("vacuum module decomposition into coset strings",
                               characters.decomposition_check_lk0,
                               {"k": _level(1), "max_weight": Param(1)}, lambda k: 10),
    "lki-decomposition": Check("every module's decomposition into coset strings",
                               _lki_decomposition,
                               {"k": _level(1), "i": Param(0, 0), "max_weight": Param(1)},
                               lambda k: 10),
    "string-dual-route": Check(
        "string functions vs Fock kernel dimensions",
        # looked up per call, so a wrapper installed on the module attribute sees it
        lambda k, i, j, max_weight: characters.string_dual_route_check(
            k, i, max_weight, j=j, strict=False
        ),
        {"k": _level(2), "i": Param(0, 0, default=0), "j": Param(0, -1), "max_weight": Param(1)},
        lambda k: 6 if k <= 3 else 4,
    ),
    "top-weight-match": Check("coset vs W-side top weights",
                              fusion_identify.topweight_match_check, {"k": _level(2)}),
    "identify": Check("the two simple-module identifications",
                      fusion_identify.identify_check, {"k": _level(3)}),
    "w1inf-generation": Check("symbol algebra generation",
                              _w1inf_generation, {"max": Param(2, default=20)}),
    "intertwiner-leading": Check("leading intertwiner coefficients",
                                 lattice_fock.intertwiner_leading_check, {"k": _level(1)},
                                 lambda k: 3),
}


def _resolve(name: str, check: Check, params: dict) -> dict:
    """``check.run``'s keyword arguments: params validated, defaults filled."""
    unknown = sorted(set(params) - set(check.params))
    if unknown:
        raise BadParams(f"{name} takes no param {unknown[0]!r}; it takes {list(check.params)}")
    args = {}
    for key, param in check.params.items():
        value = params.get(key)
        if value is None:
            if param.required:
                raise BadParams(f"{name} needs the param {key!r}")
            value = param.default
        elif (
            type(value) is not int
            or (param.lo is not None and value < param.lo)
            or (param.hi_k is not None and value > args["k"] + param.hi_k)
        ):
            raise BadParams(f"{name} needs {param.bounds(key)}, got {key}={value!r}")
        args[key] = value
    if check.truncation is not None:
        key = "max_weight" if "max_weight" in args else "truncation"
        if args.get(key) is None:
            args[key] = _truncation_default(check.truncation(args.get("k")))
    return args


def run_check(name: str, params: dict) -> Report:
    """Validate params against CHECKS[name], then run that check."""
    if name not in CHECKS:
        raise UnknownCheck(f"unknown check {name!r}; known: {sorted(CHECKS)}")
    check = CHECKS[name]
    return check.run(**_resolve(name, check, params))


def run_all(kmax=None, max_weight=None, seed=None) -> list[Report]:
    """Every check for 3 <= k <= kmax, plus the level-independent ones."""
    args = _resolve("all", ALL, {"kmax": kmax, "max_weight": max_weight, "seed": seed})
    reports = [run_check("w1inf-generation", {})]
    for k in range(3, args["kmax"] + 1):
        for name, check in CHECKS.items():
            params = {key: args[key] for key in check.params if key in args}
            if name == "string-dual-route":
                # the Fock route grows quickly with rank and depth; shrink the window
                params["max_weight"] = max(3, args["max_weight"] - 2 - (k - 3))
                reports += [run_check(name, {**params, "k": k, "i": i}) for i in range(k + 1)]
            elif "k" in check.params:
                reports.append(run_check(name, {**params, "k": k}))
    reports.sort(key=lambda r: (r.check, r.to_json()))
    return reports


ALL = Check("run the full suite for 3 <= k <= kmax", run_all,
            {"kmax": Param(3, default=4), "max_weight": Param(1), "seed": Param(default=0)},
            lambda k: 6)


# ---------------------------------------------------------------------------
# argument parsing and output
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as BadParams, so it ends in one usage line."""

    def error(self, message):
        raise BadParams(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="paraferm", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, check in {**CHECKS, "all": ALL}.items():
        p = sub.add_parser(name, help=check.help)
        for key, param in check.params.items():
            hint = param.bounds(key)
            if param.default is not None:
                hint += f", default {param.default}"
            p.add_argument(
                "--" + key.replace("_", "-"), type=int, required=param.required, help=hint
            )
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out", type=str, default=None)
    return ap


def _format_table(reports: list[Report]) -> str:
    rows = [("CHECK", "PARAMS", "STATUS", "DETAILS")]
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        ok = sum(1 for d in r.details if d.get("ok"))
        rows.append((r.check, params, r.status, f"{ok}/{len(r.details)} ok"))
    widths = [max(len(row[c]) for row in rows) for c in range(4)]
    return "\n".join(
        "  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip() for row in rows
    )


def _emit(reports: list[Report], fmt: str, out: str | None) -> None:
    if fmt == "table":
        text = _format_table(reports) + "\n"
    else:
        text = "".join(r.to_json() + "\n" for r in reports)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
        command, fmt, out = args.pop("command"), args.pop("format"), args.pop("out")
        if out:
            # fail before any check runs; an existing file is left as it is
            try:
                open(out, "a").close()
            except OSError as exc:
                raise BadParams(f"cannot write --out {out}: {exc.strerror}") from exc
        reports = run_all(**args) if command == "all" else [run_check(command, args)]
    except BadParams as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    _emit(reports, fmt, out)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
