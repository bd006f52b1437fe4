"""The code-line counter of tests/code_lines.py."""

from code_lines import code_lines, main

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


class A:
    """Class docstring."""

    # a comment line
    x = "# not a comment"

    def f(self):
        """Function docstring."""
        return """a string
that is not a docstring"""
'''


def test_docstrings_comments_and_blank_lines_are_not_code(tmp_path, capsys):
    # import, class, x, def and the two lines of the returned string
    assert code_lines(SOURCE) == 6
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    main([str(tmp_path)])
    assert capsys.readouterr().out == "     6  a.py\n     1  b.py\n     7  total\n"
