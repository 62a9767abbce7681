"""The code-line count of tools/code_lines.py, pinned on a fixture."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment


def f(x):
    """One-line docstring."""
    # a comment line
    total = (x +
             1)

    return [
        total,
        os.sep,
    ]


class C:
    """Class
    docstring."""

    y = """a string,
    not a docstring"""
'''


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path, capsys):
    # import 1, def 1, the two-line sum 2, the four-line return 4,
    # class 1 and the two-line string 2; the docstrings, the comment
    # line and the blanks count nothing
    assert code_lines.code_lines(FIXTURE) == 11
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    assert code_lines.main([str(tmp_path)]) == 0
    name = tmp_path.name
    assert capsys.readouterr().out == (
        f"    11  {name}/a.py\n     1  {name}/b.py\n    12  total\n"
    )
