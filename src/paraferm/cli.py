"""Batch verification front end.

Every identity of the suite is a named subcommand producing one
machine-readable report per check (JSON lines by default, a table with
--format table); `all` runs the whole suite over a range of levels.  Exit
code 0 when everything passes, 1 on any failure, 2 on usage errors.

The table CHECKS declares each check once, and the command line, `run_check`
and `run_all` read it.  A command line reads `paraferm COMMAND [--KEY VALUE |
--KEY=VALUE]...`, KEY being one of the command's params with `_` written as
`-`, or `--format json|table` (default json), or `--out PATH`.  A param
value goes through `int(value)`, and every param is validated before any
computation: a missing, unknown or out-of-range one is a usage error.
`paraferm CHECK -h` (or `--help`) prints the check's flags and ranges, and
`paraferm --help` prints this text and the command list.  No command, an
unknown command, an unknown or abbreviated flag, a flag without a value, a
flag given twice, a stray argument and a format other than json or table
are usage errors too.  Below, (default) and [truncation]:

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
        # A series keeps exponents strictly below T, the Fock route states of
        # weight <= T.  So at T <= 0 no series has a term and no Fock vector
        # more than the vacuum, and a check would pass on nothing; the value
        # stands in for --max-weight, which is at least 1 for the same reason.
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
    "lk0-decomposition": Check(
        "vacuum module decomposition into coset strings",
        # looked up per call, so a wrapper installed on the module attribute sees it
        lambda k, max_weight: characters.decomposition_check_lki(k, 0, max_weight),
        {"k": _level(1), "max_weight": Param(1)},
        lambda k: 10,
    ),
    "lki-decomposition": Check("every module's decomposition into coset strings",
                               _lki_decomposition,
                               {"k": _level(1), "i": Param(0, 0), "max_weight": Param(1)},
                               lambda k: 10),
    "string-dual-route": Check(
        "string functions vs Fock kernel dimensions",
        # looked up per call, so a wrapper installed on the module attribute sees it
        lambda k, i, j, max_weight: characters.string_dual_route_check(k, i, max_weight, j=j),
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
                # the Fock route grows quickly with rank and depth; shrink the
                # window, but never above the requested weight
                T = args["max_weight"]
                params["max_weight"] = min(T, max(3, T - 2 - (k - 3)))
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


_COMMANDS = {**CHECKS, "all": ALL}
_USAGE = "[--KEY VALUE | --KEY=VALUE]..."


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _help(name: str, check: Check) -> str:
    """`paraferm NAME --help`: the check's help and one line per flag."""
    rows = [
        (f"{_flag(key)} N", param.bounds(key) + (
            "" if param.default is None else f", default {param.default}"))
        for key, param in check.params.items()
    ]
    rows += [("--format json|table", "default json"), ("--out PATH", "write to PATH, not stdout")]
    return f"usage: paraferm {name} {_USAGE}\n\n{check.help}\n\n" + "".join(
        f"  {flag:<24}{hint}\n" for flag, hint in rows)


def _parse(argv: list[str]):
    """(command, params, format, out) from a command line, params holding
    every param of the command (None where no flag gives it), or the help
    text that the command line asks for.  Raises BadParams on a usage
    error."""
    if not argv:
        raise BadParams("no command; paraferm --help lists them")
    name, *rest = argv
    if name in ("-h", "--help"):
        return f"usage: paraferm COMMAND {_USAGE}\n\n{__doc__}\ncommands:\n" + "".join(
            f"  {n:<21}{c.help}\n" for n, c in _COMMANDS.items())
    check = _COMMANDS.get(name)
    if check is None:
        raise BadParams(f"unknown command {name!r}; known: {list(_COMMANDS)}")
    keys = {_flag(key): key for key in (*check.params, "format", "out")}
    given: dict[str, str] = {}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return _help(name, check)
        flag, eq, value = token.partition("=")
        if not flag.startswith("--"):
            raise BadParams(f"unexpected argument {token!r}")
        if flag not in keys:
            raise BadParams(f"{name} takes no flag {flag!r}; it takes {list(keys)}")
        if keys[flag] in given:
            raise BadParams(f"{flag} is given twice")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise BadParams(f"{flag} needs a value")
        given[keys[flag]] = value
    fmt, out = given.pop("format", "json"), given.pop("out", None)
    if fmt not in ("json", "table"):
        raise BadParams(f"--format must be json or table, got {fmt!r}")
    params = dict.fromkeys(check.params)
    for key, value in given.items():
        try:
            params[key] = int(value)
        except ValueError:
            raise BadParams(f"{_flag(key)} needs an integer, got {value!r}") from None
    return name, params, fmt, out


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
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(parsed, str):
            sys.stdout.write(parsed)
            return 0
        command, params, fmt, out = parsed
        if out is not None:
            # fail before any check runs; an existing file is left as it is
            try:
                open(out, "a").close()
            except OSError as exc:
                raise BadParams(f"cannot write --out {out}: {exc.strerror}") from exc
        reports = run_all(**params) if command == "all" else [run_check(command, params)]
    except BadParams as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    _emit(reports, fmt, out)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
