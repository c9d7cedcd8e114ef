import ast
import contextlib
import io
import shlex
import subprocess
import sys
from pathlib import Path

import torstab

SOURCES = sorted(Path(torstab.__file__).parent.glob("*.py"))


def test_package_imports_only_the_standard_library():
    # torstab has no runtime dependencies; sympy and hypothesis are for the
    # tests only.
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {module}"


def test_benchmark_hooks_exist():
    # bench/tracing.py looks these up by name.  It skips a missing `_expand`
    # silently, which would leave `invariants.candidates` at zero with no
    # error.
    from torstab import invariants, snf

    assert callable(invariants._expand)
    for name in ("add", "contains", "rank"):
        assert hasattr(snf.IntegerLattice, name)


def test_cli_start_up_skips_heavy_standard_modules():
    # Every subcommand is one process, so the import of torstab.cli is paid
    # on each call, and `dataclasses` (which pulls in `inspect`) and `typing`
    # were most of it.  `-S` keeps `site` from loading any of them first.
    src = Path(torstab.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import torstab.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(src)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split() == []


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_returns_what_its_comments_say(monkeypatch):
    block = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = block.split("```python\n", 1)[1].split("\n```", 1)[0]
    lines = block.splitlines()
    monkeypatch.chdir(README.parent)  # the block opens problems/ relatively
    namespace: dict = {}
    # The value of each expression statement and the comment on its last
    # line, by the name of the function it calls.
    returned, said = {}, {}
    for statement in ast.parse(block).body:
        source = ast.get_source_segment(block, statement)
        if isinstance(statement, ast.Expr):
            name = statement.value.func.attr
            returned[name] = eval(source, namespace)
            said[name] = lines[statement.end_lineno - 1].partition("#")[2].strip()
        else:
            exec(source, namespace)

    assert said["mu"] == "-1" and returned["mu"] == -1
    assert said["classify"] == "unstable, witness (1,)"
    assert returned["classify"].status is torstab.StabilityStatus.UNSTABLE
    assert returned["classify"].witness == (1,)
    assert returned["limit_point"] is not None
    assert said["classify_patterns"] == "all 12 support patterns"
    assert len(returned["classify_patterns"].rows) == 12
    quotient = returned["quotient_presentation"]
    assert quotient.proj_generators and quotient.relations and quotient.ambient
    assert said["stabilizer_order"] == "2" and returned["stabilizer_order"] == 2
    assert said["classify_config"] == "stable"
    assert returned["classify_config"].status is torstab.StabilityStatus.STABLE


def test_readme_cli_commands_exit_0(monkeypatch):
    from torstab.cli import main

    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n", 1)[1].split("\n```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("torstab ")]
    assert commands
    monkeypatch.chdir(README.parent)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv[1:]) == 0, argv
