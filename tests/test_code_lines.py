import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SOURCE = '''"""A module docstring
over two lines."""

# a comment
import math  # a trailing comment


def f(x):
    """A docstring."""
    y = """a string that is
    a value"""
    return (x +
            y)


class C:
    "a one-line docstring"
    z = 1
'''


def test_code_lines_skip_comments_blank_lines_and_docstrings():
    # import, def, the two-line assignment, the two-line return, class, z
    assert code_lines.code_lines(_SOURCE) == 8


@pytest.mark.parametrize("source, count", [("", 0), ("x = 1\n", 1), ("'''doc'''\n", 0),
                                           ("f('''a\nb''')\n", 2), ("x = 1  # c\n\n\n", 1)])
def test_code_lines_of_small_sources(source, count):
    assert code_lines.code_lines(source) == count


def test_the_package_count_is_the_sum_of_its_modules(capsys):
    package = _PATH.parents[1] / "src" / "qlt"
    assert code_lines.main([str(package)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    assert sum(int(n) for n, _ in rows[:-1]) == int(rows[-1][0])
    assert {pathlib.Path(p).name for _, p in rows[:-1]} == {p.name for p in package.glob("*.py")}
