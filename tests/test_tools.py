"""The repository's own scripts under `tools/`."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# A comment line.
class Point:
    """Class docstring."""

    x = (
        1,
        2,
    )

    def norm(self):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return text


def bare():
    return os.sep
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    code_lines = _load("code_lines").code_lines
    # import, class, x = ( 1, 2, ) (4 lines), def norm, text = (2 lines),
    # return, def bare, return: 12 of the 24 lines.
    assert code_lines(SOURCE) == 12
    assert code_lines("") == 0


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    main = _load("code_lines").main
    (tmp_path / "a.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\n')
    assert main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["2", str(tmp_path / "a.py")],
        ["0", str(tmp_path / "b.py")],
        ["2", "total"],
    ]
