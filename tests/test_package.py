import ast
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
    # bench/tracing.py looks these up by name.  It skips a missing
    # `_eliminate` or `_expand` silently, which would leave `cones.rows_max`
    # and `invariants.candidates` at zero with no error.
    from torstab import cones, invariants, snf

    assert callable(cones._eliminate)
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
