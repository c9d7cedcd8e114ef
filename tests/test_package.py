import ast
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
