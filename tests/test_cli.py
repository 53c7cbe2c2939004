"""Front-end dispatch, output formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import paraferm
from paraferm import cli
from paraferm.cli import ALL, CHECKS, main, run_all, run_check
from paraferm.errors import BadParams, UnknownCheck
from paraferm.report import make_report


class TestRunCheck:
    def test_registry_names(self):
        assert set(CHECKS) == {
            "ope",
            "singular-vector",
            "ek-power",
            "lk0-decomposition",
            "lki-decomposition",
            "string-dual-route",
            "top-weight-match",
            "identify",
            "w1inf-generation",
            "intertwiner-leading",
        }

    def test_dispatch(self):
        r = run_check("ope", {"k": 3})
        assert r.check == "ope" and r.passed

    def test_unknown_check(self):
        with pytest.raises(UnknownCheck):
            run_check("nonsense", {"k": 3})

    def test_every_report_names_its_identity(self):
        for name, params in [
            ("ope", {"k": 3}),
            ("top-weight-match", {"k": 5}),
            ("identify", {"k": 3}),
            ("w1inf-generation", {"max": 8}),
            ("intertwiner-leading", {"k": 3}),
        ]:
            r = run_check(name, params)
            assert r.identity

    def test_run_all_requires_k3(self):
        with pytest.raises(BadParams):
            run_all(2)

    def test_run_all_windows_stay_within_max_weight(self):
        # the dual-route window shrink never raises a window above the
        # requested weight
        reports = run_all(3, max_weight=2)
        weights = [r.params["max_weight"] for r in reports if "max_weight" in r.params]
        assert any(r.check == "string-dual-route" for r in reports)
        assert weights and all(Fraction(w) <= 2 for w in weights), weights


class TestMain:
    def test_pass_exit_code(self, capsys):
        assert main(["ope", "--k", "3"]) == 0
        out = capsys.readouterr().out
        rec = json.loads(out.strip())
        assert rec["status"] == "pass"

    def test_json_lines_deterministic(self, capsys):
        main(["identify", "--k", "4"])
        first = capsys.readouterr().out
        main(["identify", "--k", "4"])
        second = capsys.readouterr().out
        assert first == second

    def test_table_format(self, capsys):
        main(["top-weight-match", "--k", "6", "--format", "table"])
        out = capsys.readouterr().out
        assert "CHECK" in out and "top-weight-match" in out

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "reports.jsonl"
        assert main(["w1inf-generation", "--max", "10", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        rec = json.loads(path.read_text().strip())
        assert rec["check"] == "w1inf-generation" and rec["status"] == "pass"

    @pytest.mark.parametrize("value", ["1", "2"])
    def test_truncated_part_keeps_the_composite_truncated(self, value, monkeypatch, capsys):
        # W3 is truncated to zero here and singular only trivially, so the
        # composite report may not claim a plain pass
        monkeypatch.setenv("PARAFERM_TRUNCATION", value)
        assert main(["singular-vector", "--k", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass-up-to-truncation"

    def test_seed_recorded(self, capsys):
        main(["singular-vector", "--k", "3", "--seed", "7"])
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["params"]["seed"] == 7

    def test_lki_single_module(self, capsys):
        assert main(["lki-decomposition", "--k", "3", "--i", "1", "--max-weight", "4"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["params"]["i"] == 1

    def test_dual_route_flags(self, capsys):
        code = main(
            ["string-dual-route", "--k", "3", "--i", "0", "--j", "0", "--max-weight", "3"]
        )
        assert code == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["params"]["j"] == 0


def _run_python(*args, **env):
    """Run `python ARGS` with the parent's environment plus ENV, importing
    the same paraferm as this process does."""
    src = str(Path(paraferm.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def _run_cli(*args, **env):
    """Run `python -m paraferm ARGS` as `_run_python` does."""
    return _run_python("-m", "paraferm", *args, **env)


class TestSubprocess:
    def test_module_invocation_and_usage_error(self):
        ok = _run_cli("ek-power", "--k", "3")
        assert ok.returncode == 0
        assert json.loads(ok.stdout.strip())["status"] == "pass"
        bad = _run_cli("all", "--kmax", "2")
        assert bad.returncode == 2
        missing = _run_cli("no-such-check")
        assert missing.returncode == 2

    def test_truncation_env_override(self):
        proc = _run_cli("ope", "--k", "3", PARAFERM_TRUNCATION="5")
        assert proc.returncode == 0
        rec = json.loads(proc.stdout.strip())
        assert rec["params"]["truncation"] == "5"

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_truncation_env_nonpositive_is_usage_error(self, value):
        proc = _run_cli("ope", "--k", "3", PARAFERM_TRUNCATION=value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:")

    def test_import_loads_no_dataclasses_inspect_argparse_or_gettext(self):
        # each command pays its import: these and what they load cost
        # several milliseconds of start-up and nothing in the package needs them
        heavy = {"dataclasses", "inspect", "argparse", "gettext"}
        proc = _run_python("-c", (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import paraferm.cli\n"
            f"heavy = {sorted(heavy)!r}\n"
            "print(' '.join(m for m in heavy if m in before))\n"
            "print(' '.join(m for m in heavy if m in sys.modules and m not in before))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        preloaded, loaded = proc.stdout.split("\n")[:2]
        if preloaded:
            pytest.skip(f"the interpreter loads {preloaded} before paraferm")
        assert loaded == ""


def _main(argv):
    """main(argv) in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:"), err


_TABLE = {**CHECKS, "all": ALL}
_BOUNDED = [
    (name, key)
    for name, check in _TABLE.items()
    for key, param in check.params.items()
    if param.lo is not None or param.hi_k is not None
]


class TestParamRanges:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_out_of_range_is_usage_error(self, data):
        name, key = data.draw(st.sampled_from(_BOUNDED))
        params = _TABLE[name].params
        argv = [name]
        k = None
        if key != "k" and "k" in params:
            k = data.draw(st.integers(params["k"].lo, params["k"].lo + 6))
            argv += ["--k", str(k)]
        param = params[key]
        outside = []
        if param.lo is not None:
            outside.append(st.integers(max_value=param.lo - 1))
        if param.hi_k is not None:
            outside.append(st.integers(min_value=k + param.hi_k + 1))
        value = data.draw(st.one_of(outside))
        argv += ["--" + key.replace("_", "-"), str(value)]
        _assert_usage_error(*_main(argv))

    @given(name=st.sampled_from(sorted(CHECKS)), key=st.text(min_size=1, max_size=12))
    def test_run_check_unknown_key(self, name, key):
        assume(key not in CHECKS[name].params)
        params = {key: 1}
        if "k" in CHECKS[name].params:
            params["k"] = 3
        with pytest.raises(BadParams):
            run_check(name, params)

    @pytest.mark.parametrize("name", sorted(n for n, c in CHECKS.items() if "k" in c.params))
    def test_run_check_missing_key(self, name):
        with pytest.raises(BadParams):
            run_check(name, {})

    @pytest.mark.parametrize("value", ["3", 3.0, True])
    def test_run_check_non_integer(self, value):
        with pytest.raises(BadParams):
            run_check("ope", {"k": value})


# Each used to end in a traceback, run on a substituted value, ignore a flag
# or give a false verdict of an exact identity.
BAD_INPUT = [
    "ope --k 1",
    "ek-power --k 0",
    "intertwiner-leading --k 0",
    "intertwiner-leading --k -2",
    "lki-decomposition --k 3 --i 7",
    "identify --k 2",
    "string-dual-route --k 3 --i 9",
    "string-dual-route --k 3 --j 7",
    "lk0-decomposition --k 3 --max-weight -2",
    "lk0-decomposition --k 3 --max-weight 0",
    "lk0-decomposition --k 0 --max-weight 3",
    "all --kmax 3 --max-weight 0",
    "w1inf-generation --max 0",
    "w1inf-generation --max 1",
    "lki-decomposition --k 3 --j 0",
    "ope --k 3 --seed 4",
    "singular-vector --k 2",
    "ope --k x",
    "ope",
    "no-such-check",
    "ope --k 3 --out /nonexistent/x.json",
    "ope --k 3 --out .",
    "ope --k 3 --out ''",
    "ope --k",
    "ope --k 3 --k 4",
    "all --km 3",
    "ope --k 3 extra",
    "ope --k 3 --format xml",
    "--k 3 ope",
    "",
]


class TestBadInput:
    @pytest.mark.parametrize("command", BAD_INPUT)
    def test_usage_error(self, command):
        _assert_usage_error(*_main(shlex.split(command)))

    def test_usage_error_names_the_token(self):
        for command, token in [
            ("ope --k", "--k"),
            ("ope --k 3 --k 4", "--k"),
            ("all --km 3", "--km"),
            ("ope --k 3 extra", "extra"),
            ("ope --k 3 --format xml", "xml"),
            ("--k 3 ope", "--k"),
            ("ope --max-w 3", "--max-w"),
        ]:
            code, out, err = _main(shlex.split(command))
            _assert_usage_error(code, out, err)
            assert token in err, (command, err)

    def test_all_passes_seed_to_singular_vector(self, monkeypatch):
        calls = []

        def record(name, params):
            calls.append((name, params))
            return make_report(name, params, [("recorded", True, None)])

        monkeypatch.setattr(cli, "run_check", record)
        run_all(3, seed=5)
        assert ("singular-vector", {"k": 3, "seed": 5}) in calls


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("paraferm ")
    ]


# What the argparse front end, replaced by `cli._parse`, gave for each
# command line: (command, params, format, out).
PARSED = [
    ("ope --k 3", ("ope", {"k": 3}, "json", None)),
    ("singular-vector --k 4 --seed 1", ("singular-vector", {"k": 4, "seed": 1}, "json", None)),
    ("ek-power --k 3", ("ek-power", {"k": 3}, "json", None)),
    ("lk0-decomposition --k 3 --max-weight 6",
     ("lk0-decomposition", {"k": 3, "max_weight": 6}, "json", None)),
    ("lki-decomposition --k 4 --i 2 --max-weight 6",
     ("lki-decomposition", {"k": 4, "i": 2, "max_weight": 6}, "json", None)),
    ("string-dual-route --k 3 --i 0 --j 0 --max-weight 6",
     ("string-dual-route", {"k": 3, "i": 0, "j": 0, "max_weight": 6}, "json", None)),
    ("top-weight-match --k 12", ("top-weight-match", {"k": 12}, "json", None)),
    ("identify --k 5", ("identify", {"k": 5}, "json", None)),
    ("w1inf-generation --max 20", ("w1inf-generation", {"max": 20}, "json", None)),
    ("intertwiner-leading --k 5", ("intertwiner-leading", {"k": 5}, "json", None)),
    ("all --kmax 4", ("all", {"kmax": 4, "max_weight": None, "seed": None}, "json", None)),
    ("ope --k=3", ("ope", {"k": 3}, "json", None)),
    ("string-dual-route --k=3 --i=0 --j=0 --max-weight=6",
     ("string-dual-route", {"k": 3, "i": 0, "j": 0, "max_weight": 6}, "json", None)),
    ("all --kmax=4 --max-weight 5 --seed=2",
     ("all", {"kmax": 4, "max_weight": 5, "seed": 2}, "json", None)),
    ("ope --k 3 --format table --out r.txt", ("ope", {"k": 3}, "table", "r.txt")),
    ("ope --format=table --out=r.txt --k=3", ("ope", {"k": 3}, "table", "r.txt")),
    ("lk0-decomposition --k 3 --max-weight -2",
     ("lk0-decomposition", {"k": 3, "max_weight": -2}, "json", None)),
    ("ope --k +3", ("ope", {"k": 3}, "json", None)),
    ("ope --k ' 3 '", ("ope", {"k": 3}, "json", None)),
]


@pytest.mark.parametrize("command, parsed", PARSED)
def test_parse_gives_what_argparse_gave(command, parsed):
    assert cli._parse(shlex.split(command)) == parsed


@pytest.mark.parametrize("name", sorted(_TABLE))
def test_check_help_names_every_flag_with_its_range(name):
    code, out, err = _main([name, "--help"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert _TABLE[name].help in lines
    for key, param in _TABLE[name].params.items():
        flag = "--" + key.replace("_", "-")
        assert any(line.split()[:1] == [flag] and param.bounds(key) in line for line in lines)
    # help after a flag too, as long as it stands where a flag may
    first = "--" + next(iter(_TABLE[name].params)).replace("_", "-")
    assert _main([name, first, "3", "-h"]) == (0, out, "")


def test_help_lists_every_command():
    code, out, err = _main(["--help"])
    assert (code, err) == (0, "")
    assert cli.__doc__ in out
    for name, check in _TABLE.items():
        assert f"  {name}" in out and check.help in out


def test_readme_commands_match_the_table():
    commands = _readme_commands()
    for argv in commands:
        name, params, _, _ = cli._parse(argv)
        cli._resolve(name, _TABLE[name], params)
    assert {argv[0] for argv in commands} == set(CHECKS) | {"all"}
    # `paraferm --help` prints the module docstring, whose table rows start
    # with the check name; continuation rows start with a flag
    rows = [line.split()[0] for line in cli.__doc__.splitlines() if line.startswith("    ")]
    assert {row for row in rows if not row.startswith("--")} == set(CHECKS) | {"all"}


_BENCHMARK_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _differ_from_the_benchmark_reference(commands, path=_BENCHMARK_REFERENCE):
    """The commands whose report bytes differ from the ones recorded in path
    (read here, never written), by default perfbench/reference.json, in
    length or SHA-256.  A command's leading NAME=value tokens are set in the
    environment for its call only."""
    reference = json.loads(path.read_text())
    differ = []
    for command in commands:
        argv = command.split()
        env = {}
        while "=" in argv[0]:
            name, value = argv.pop(0).split("=", 1)
            env[name] = value
        buf = io.StringIO()
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(buf):
            assert main(argv) == 0, command
        data = buf.getvalue().encode()
        want = reference[command]
        if (len(data), hashlib.sha256(data).hexdigest()) != (want["bytes"], want["sha256"]):
            differ.append(command)
    return differ


def test_fock_reports_match_the_benchmark_reference():
    """The Fock-route reports are byte-identical to the ones recorded in
    perfbench/reference.json."""
    commands = [f"string-dual-route --k 3 --i {i} --max-weight 4" for i in range(4)]
    commands += [f"singular-vector --k {k} --seed {s}" for k in (3, 4) for s in range(4)]
    commands.append("all --kmax 3 --max-weight 5")
    assert not _differ_from_the_benchmark_reference(commands)


def test_character_reports_match_the_benchmark_reference():
    """The character-route reports (lki-decomposition: affine characters,
    string functions, lattice-coset blocks; identify and top-weight-match:
    label arithmetic; the symbol generation) are byte-identical to the ones
    recorded in perfbench/reference.json."""
    commands = [f"lki-decomposition --k {k} --max-weight 10" for k in range(3, 7)]
    commands += [f"identify --k {k}" for k in range(3, 41)]
    commands.append("top-weight-match --k 40")
    commands.append("w1inf-generation --max 100")
    assert not _differ_from_the_benchmark_reference(commands)


def test_fock_reports_the_benchmark_skips_match_the_golden_file():
    """The Fock-route reports the benchmark does not run (the bracket
    relations and E-power for k = 2..5, the gamma-lattice intertwiner for
    k = 1..6, the k = 4 dual route in every sector, the k = 5 and k = 6
    singular vector, the k <= 4 suite, and the k = 3, 4 singular vector at
    truncations 1 and 2, whose verdict is pass-up-to-truncation) are
    byte-identical to the ones recorded in tests/golden_reports.json."""
    commands = [f"ope --k {k}" for k in range(2, 6)]
    commands += [f"ek-power --k {k}" for k in range(2, 6)]
    commands += [f"intertwiner-leading --k {k}" for k in range(1, 7)]
    commands += [f"string-dual-route --k 4 --i {i} --max-weight 4" for i in range(5)]
    commands += ["singular-vector --k 5", "singular-vector --k 6", "all --kmax 4"]
    commands += [
        f"PARAFERM_TRUNCATION={t} singular-vector --k {k}" for k in (3, 4) for t in (1, 2)
    ]
    path = Path(__file__).resolve().parent / "golden_reports.json"
    assert set(json.loads(path.read_text())) == set(commands)
    assert not _differ_from_the_benchmark_reference(commands, path)
