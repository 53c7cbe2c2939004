"""Front-end dispatch, output formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

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


def _run_cli(*args, **env):
    """Run `python -m paraferm ARGS` with the parent's environment plus ENV,
    importing the same paraferm as this process does."""
    src = str(Path(paraferm.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "paraferm", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


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
]


class TestBadInput:
    @pytest.mark.parametrize("command", BAD_INPUT)
    def test_usage_error(self, command):
        _assert_usage_error(*_main(shlex.split(command)))

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


def test_readme_commands_match_the_table():
    commands = _readme_commands()
    parser = cli._build_parser()
    for argv in commands:
        args = vars(parser.parse_args(argv))
        name = args.pop("command")
        del args["format"], args["out"]
        cli._resolve(name, _TABLE[name], args)
    assert {argv[0] for argv in commands} == set(CHECKS) | {"all"}


def test_fock_reports_match_the_benchmark_reference():
    """The Fock-route reports are byte-identical to the ones recorded in
    perfbench/reference.json (read here, never written)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    commands = [f"string-dual-route --k 3 --i {i} --max-weight 4" for i in range(4)]
    commands.append("singular-vector --k 3 --seed 0")
    differ = []
    for command in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(command.split()) == 0, command
        data = buf.getvalue().encode()
        want = reference[command]
        if (len(data), hashlib.sha256(data).hexdigest()) != (want["bytes"], want["sha256"]):
            differ.append(command)
    assert not differ
