"""Tests of ``tools/code_lines.py``: which lines of a source count as code."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps a code line

# a comment alone


class Box:
    """A class docstring."""

    size = 2


def area(r):
    """A function docstring

    with a blank line inside.
    """
    text = """a string that is not a docstring
    counts"""
    return math.pi * r * r
'''


def test_counts_code_lines_only():
    # import, class, size, def, the two lines of text, return
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "    7 a", "    1 b", "    8 total", ""]
