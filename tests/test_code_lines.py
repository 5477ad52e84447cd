import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
two lines."""

import math  # a trailing comment keeps the line


# a comment-only line
class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Function
        docstring."""
        note = """a multi-line string
        that is not a docstring"""
        return math.pi * (
            self.size ** 2)
'''


def test_counts_code_lines_only():
    # import, class, size, def, note (2 lines), return (2 lines)
    assert code_lines.code_lines(SNIPPET) == 8


def test_docstring_lines():
    import ast

    assert code_lines.docstring_lines(ast.parse(SNIPPET)) == {1, 2, 9, 14, 15}


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# comment\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = [\n    2]\n')
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.split("\n")
    assert out[0].split() == ["a.py", "1"]
    assert out[1].split() == ["b.py", "2"]
    assert out[2].split() == ["total", "3"]
