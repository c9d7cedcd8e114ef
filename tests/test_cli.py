import json
import random

import pytest

from torstab.cli import main


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
    assert "8/8 suites passed" in out


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
