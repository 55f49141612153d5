"""tools/code_lines.py's counts, checked on a small source against values
worked out by hand."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# Line by line: a two-line module docstring (1-2), a blank (3), an import
# with a trailing comment (4), two blanks (5-6), a comment line (7), a
# class (8) with a docstring (9), a blank (10), a method (11) with a
# two-line docstring (12-13), a two-line string that is not a docstring
# (14-15) and a statement split over two lines (16-17).
SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# A comment line.
class Box:
    """Class docstring."""

    def size(self):
        """Function
        docstring."""
        text = """not a
docstring"""
        return len(text +
                   os.sep)
'''


def test_count_skips_docstrings_comments_and_blanks():
    # Code lines: 4, 8, 11, 14, 15, 16 and 17.
    assert code_lines.count(SOURCE) == (17, 7)


def test_only_the_first_string_of_a_body_is_its_docstring():
    # A second string statement is code, and so is a function's body.
    source = 'def f():\n    """Doc."""\n    """Not doc."""\n    return 1\n'
    assert code_lines.count(source) == (4, 3)
