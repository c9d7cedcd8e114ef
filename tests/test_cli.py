import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import torstab
from torstab.cli import main
from torstab.golden import GOLDEN_REPORTS
from torstab.report import build_report, to_text


@pytest.fixture
def capture(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def test_classify_text(capture):
    code, out, _ = capture(
        "classify", "--problem", "builtin:conic-bundle", "--point", "x=1,y=0,u=1,v=0"
    )
    assert code == 0
    assert "unstable" in out
    assert "witness=(1)" in out
    assert "mu=-1" in out


def test_classify_problem_file(capture, tmp_path):
    path = tmp_path / "p.problem"
    path.write_text(
        '{"torus_rank": 1, "base_vars": {"x": [1], "y": [-1]},'
        ' "fiber_vars": {"u": [1], "v": [-1]}}'
    )
    code, out, _ = capture(
        "classify", "--problem", str(path), "--point", "x=1,y=1,u=1,v=1"
    )
    assert code == 0
    assert out.strip() == "stable"


def test_point_file(capture, tmp_path):
    path = tmp_path / "point.json"
    path.write_text('{"x": "1", "y": "0", "u": "1", "v": "0"}')
    code, out, _ = capture(
        "mu", "--problem", "builtin:conic-bundle", "--point", str(path), "--lambda", "2"
    )
    assert code == 0
    assert "= -2" in out


def test_input_error_exit_code(capture):
    code, _, err = capture(
        "classify", "--problem", "builtin:conic-bundle", "--point", "x=1,y=0,u=0,v=0"
    )
    assert code == 1
    assert "zero section" in err


def test_missing_file_exit_code(capture):
    code, _, err = capture(
        "classify", "--problem", "/nonexistent.problem", "--point", "x=1"
    )
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--problem", "{bad}", "--point", "x=1"),
        ("patterns", "--problem", "{bad}"),
        ("mu", "--problem", "builtin:conic-bundle", "--point", "{bad}", "--lambda", "1"),
    ],
)
def test_non_utf8_file_is_an_input_error(capture, tmp_path, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = capture(*(str(path) if a == "{bad}" else a for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read")
    assert "utf-8" in err
    assert len(err.splitlines()) == 1


def test_bad_flag_exit_code(capture):
    code, _, err = capture("classify", "--problem", "builtin:conic-bundle")
    assert code == 1


def test_point_off_ideal_rejected(capture):
    code, _, err = capture(
        "classify",
        "--problem",
        "builtin:degenerating-conic",
        "--point",
        "t=1,x=2,y=1,z=1",
    )
    assert code == 1
    assert "ideal" in err


def test_patterns_warns_about_ideal(capture):
    code, out, _ = capture("patterns", "--problem", "builtin:degenerating-conic")
    assert code == 0
    assert "ideal realizability not checked" in out


def test_json_report_schema(capture):
    code, out, _ = capture(
        "classify",
        "--problem",
        "builtin:conic-bundle",
        "--point",
        "x=1,y=0,u=1,v=0",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "torstab-report/1"
    assert report["result"]["status"] == "unstable"
    assert report["result"]["witness"] == [1]
    assert report["input_digest"]
    assert "command" not in report


def test_reports_byte_identical(capture):
    args = (
        "quotient",
        "--problem",
        "builtin:conic-bundle",
        "--format",
        "json",
    )
    _, first, _ = capture(*args)
    _, second, _ = capture(*args)
    assert first == second
    _, sweep_one, _ = capture("conic", "--n", "2", "--sweep", "--format", "json")
    _, sweep_two, _ = capture("conic", "--n", "2", "--sweep", "--format", "json")
    assert sweep_one == sweep_two


def test_quotient_text(capture):
    code, out, _ = capture("quotient", "--problem", "builtin:conic-bundle")
    assert code == 0
    assert "ambient: A^1 x P(1,1,2)" in out
    assert "Z0*Z1 - T0*Z2 = 0" in out


@pytest.mark.parametrize(
    "argv, warned",
    [
        (("invariants", "--max-degree", "3"), True),
        (("relations", "--max-degree", "3"), True),
        (("quotient", "--max-degree", "3"), True),
        (("sections", "--max-degree", "3", "--point", "x=1,y=0,u=1,v=0"), True),
        # A section found certifies semistability at any bound.
        (("sections", "--max-degree", "3", "--point", "x=1,y=0,u=1,v=1"), False),
        (("classify", "--point", "x=1,y=0,u=1,v=0"), False),
    ],
    ids=["invariants", "relations", "quotient", "no-section", "section", "classify"],
)
def test_degree_bounded_reports_say_so(capture, argv, warned):
    code, out, _ = capture(*argv, "--problem", "builtin:conic-bundle", "--format", "json")
    assert code == 0
    expected = "degree-bounded: invariant monomials of total degree > 3 were not enumerated"
    assert json.loads(out)["warnings"] == ([expected] if warned else [])


def test_conic_sweep_prints_weight_table(capture):
    code, out, _ = capture("conic", "--n", "1", "--sweep")
    assert code == 0
    assert "weight table:" in out
    assert "shift=none" in out
    assert "equivalence holds: True" in out


def test_conic_single_config(capture):
    code, out, _ = capture(
        "conic",
        "--n",
        "2",
        "--stratum",
        "1,3",
        "--lengths",
        "0,2,0",
        "--marked",
        "1:1/2,1:-1/2",
        "--lambda",
        "1,1",
    )
    assert code == 0
    assert "admissible: yes" in out
    assert "verdict: stable" in out
    assert "stabilizer order: 2" in out


def test_conic_components(capture):
    code, out, _ = capture(
        "conic", "--n", "2", "--stratum", "3", "--lengths", "2,0", "--components"
    )
    assert code == 0
    assert "components: H20, H11, H02" in out
    assert "H20 * H11 * H02" in out


def test_selftest_passes(capture):
    code, out, _ = capture("selftest")
    assert code == 0
    total = len(GOLDEN_REPORTS)
    assert f"{total}/{total} golden reports reproduced" in out
    assert "FAIL" not in out


def test_selftest_names_a_corrupted_digest(capture, monkeypatch):
    import torstab.cli as cli_module

    (argv, json_digest, text_digest), *rest = GOLDEN_REPORTS
    corrupted = [(argv, json_digest, "0" * 64)] + rest
    monkeypatch.setattr(cli_module, "GOLDEN_REPORTS", tuple(corrupted))
    code, out, _ = capture("selftest")
    command = " ".join(argv)
    assert code == 2
    assert f"warning: self-test failed: {command}\n" in out
    assert f"FAIL: {command} (text digest differs)" in out
    code, out, _ = capture("selftest", "--format", "json")
    report = json.loads(out)
    assert code == 2
    assert report["result"]["all_passed"] is False
    assert report["warnings"] == [f"self-test failed: {command}"]


def test_lambda_validation(capture):
    code, _, err = capture(
        "mu",
        "--problem",
        "builtin:conic-bundle",
        "--point",
        "x=1,y=0,u=1,v=1",
        "--lambda",
        "one",
    )
    assert code == 1
    assert "comma-separated integers" in err


def test_internal_invariant_violation_exit_code(capture, monkeypatch):
    from torstab.errors import InternalInvariantError
    import torstab.cli as cli_module

    def broken(args):
        raise InternalInvariantError("witness failed re-substitution")

    monkeypatch.setattr(cli_module, "_cmd_mu", broken)
    code, _, err = capture(
        "mu", "--problem", "builtin:conic-bundle", "--point", "x=1,y=0,u=1,v=1",
        "--lambda", "1",
    )
    assert code == 2
    assert "invariant violation" in err


SUCCESSIVE_COMMANDS = [
    ("invariants", "--problem", "builtin:conic-bundle", "--max-degree", "3"),
    ("invariants", "--problem", "builtin:conic-bundle"),
    ("patterns", "--problem", "builtin:conic-bundle", "--max-vars", "2"),
    ("patterns", "--problem", "builtin:conic-bundle", "--format", "json"),
    ("conic", "--n", "2", "--sweep", "--format", "json"),
    ("conic", "--n", "2", "--stratum", "3", "--lengths", "2,0"),
]


def test_successive_calls_share_one_parser_and_leak_nothing(capture):
    import torstab.cli as cli_module

    alone = []
    for argv in SUCCESSIVE_COMMANDS:
        cli_module._build_parser.cache_clear()  # a fresh parser, as in a new process
        code, out, _ = capture(*argv)
        alone.append((code, out))
    assert [code for code, _ in alone] == [0, 0, 1, 0, 0, 0]
    assert alone[0] != alone[1]  # the second call runs at the default --max-degree

    parser = cli_module._build_parser()
    in_sequence = [capture(*argv)[:2] for argv in SUCCESSIVE_COMMANDS]
    assert in_sequence == alone
    assert cli_module._build_parser() is parser


def test_help_describes_the_tool_not_its_internals(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: torstab")
    assert "split-torus actions" in out
    assert "_cmd_" not in out


def test_oversized_cone_system_exits_1(capture, tmp_path):
    rng = random.Random(0)
    rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(14)]
    path = tmp_path / "big.problem"
    path.write_text(json.dumps({
        "torus_rank": 5,
        "base_vars": {f"x{i}": row for i, row in enumerate(rows[:13])},
        "fiber_vars": {"u0": rows[13]},
    }))
    point = ",".join([f"x{i}=1" for i in range(13)] + ["u0=1"])
    code, out, err = capture("classify", "--problem", str(path), "--point", point)
    assert code == 1
    assert out == ""
    assert err.startswith("error: rank-5 cone system of 14 rows is too large")


P40 = str(Path(__file__).parent / "tables" / "p40.problem")


def test_p40_quotient_at_the_default_syzygy_degree_is_fast(capture):
    # A full scan at the default --syzygy-degree 8 would try C(24 + 8, 8) - 1,
    # about 10.5 M, generator products.
    start = time.process_time()
    code, out, _ = capture("quotient", "--problem", P40, "--max-degree", "10")
    assert time.process_time() - start < 1
    assert code == 0
    assert "ambient: A^1 x P(1,1,2,2,3,3,3,3,4,4,4,4,4,5,5,5,5,5,6,6,6,7,7)" in out


def test_relation_scan_over_the_cap_exits_1(capture, monkeypatch):
    from torstab import invariants

    monkeypatch.setattr(invariants, "MAX_RELATION_CANDIDATES", 100)
    code, out, err = capture("relations", "--problem", P40, "--max-degree", "10")
    assert code == 1
    assert out == ""
    assert err.startswith("error: relations among 24 generators up to syzygy degree 8")


def test_reported_witnesses_reverify(capture):
    from torstab import builtin_problem, mu, parse_point

    code, out, _ = capture(
        "patterns", "--problem", "builtin:conic-bundle", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    problem = builtin_problem("conic-bundle")
    for row in report["result"]["rows"]:
        if row["verdict"]["witness"] is None:
            continue
        values = {
            name: "1" if name in row["base"] + row["fiber"] else "0"
            for name in problem.var_names
        }
        realized = parse_point(problem, values)
        lam = tuple(row["verdict"]["witness"])
        assert str(mu(problem, realized, lam)) == row["verdict"]["witness_mu"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--stratum", "1", "--lengths", "1,x"), "--lengths must be comma-separated integers"),
        (("--sweep", "--twists", "10,x"), "--twists must be comma-separated integers"),
        (
            ("--stratum", "1,3", "--lengths", "0,2,0", "--marked", "one:1/2,1:-1/2"),
            "marked point component must be an integer",
        ),
    ],
    ids=["lengths", "twists", "marked"],
)
def test_conic_non_integer_flags_exit_1(capture, argv, message):
    code, out, err = capture("conic", "--n", "2", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def test_input_digest_ignores_path_spelling_and_formatting(capture, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    problem = {"torus_rank": 1, "base_vars": {"x": [1], "y": [-1]},
               "fiber_vars": {"u": [1], "v": [-1]}}
    (tmp_path / "p.problem").write_text(json.dumps(problem))
    (tmp_path / "q.problem").write_text(json.dumps(problem, indent=4) + "\n\n")
    outputs = set()
    for spec in ("./p.problem", str(tmp_path / "p.problem"), "q.problem", "builtin:conic-bundle"):
        code, out, _ = capture(
            "classify", "--problem", spec, "--point", "x=1,y=0,u=1,v=0", "--format", "json"
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (("mu", "--problem", "builtin:conic-bundle", "--point", "x=1,y=0,u=1,v=1",
          "--lambda=-1"), "lambda", [-1]),
        (("invariants", "--problem", "builtin:conic-bundle", "--max-degree", "3"),
         "max_degree", 3),
        (("sections", "--problem", "builtin:conic-bundle", "--point", "x=1,y=0,u=1,v=0",
          "--max-degree", "2"), "max_degree", 2),
        (("conic", "--n", "2", "--stratum", "1,3", "--lengths", "0,2,0",
          "--lambda=-1,2"), "lambda", [-1, 2]),
    ],
    ids=["mu", "invariants", "sections", "conic"],
)
def test_json_carries_what_the_text_prints(capture, argv, key, value):
    code, out, _ = capture(*argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["result"][key] == value


def test_sweep_json_gives_every_stratum_weights(capture):
    code, out, _ = capture("conic", "--n", "2", "--sweep", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    strata = [tuple(entry["stratum"]) for entry in result["stratum_weights"]]
    assert sorted(strata) == sorted({tuple(row["stratum"]) for row in result["rows"]})
    assert len(strata) == len(set(strata)) == 2 ** 3
    by_stratum = {tuple(e["stratum"]): e["intervals"] for e in result["stratum_weights"]}
    assert by_stratum[(1, 2, 3)] == result["weight_table"]["intervals"]
    assert by_stratum[()] == [
        {"interval": [0, 1, 2, 3], "weight_toward_start": [-20, -1],
         "weight_toward_end": [10, 2]}
    ]


def test_text_renders_non_unit_coefficients():
    report = build_report("relations", None, {
        "generators": [],
        "relations": [[
            {"coeff": "-2", "monomial": {"x": 1}},
            {"coeff": "2/3", "monomial": {"y": 2}},
            {"coeff": "1", "monomial": {}},
        ]],
    })
    assert to_text(report) == "generators:\nrelations:\n  2/3*y^2 + 1 + -2*x = 0\n"


class _ClosedStdout:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_1_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = main(["conic", "--n", "1", "--sweep"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_closed_pipe_exits_1_without_traceback():
    src = Path(torstab.__file__).resolve().parent.parent
    child = subprocess.Popen(
        [sys.executable, "-m", "torstab.cli", "conic", "--n", "2", "--sweep"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    child.stdout.close()  # the reader is gone before the report is written
    err = child.stderr.read().decode()
    assert child.wait() == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert "Exception ignored" not in err
