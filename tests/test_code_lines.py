"""The code-line counter: no blanks, comments or docstrings."""

import code_lines

FIXTURE = '''"""Module docstring,
on two lines."""

# a comment line
import os   # code with a comment


class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self,
          y):
        """Function docstring."""

        return (y +
                1)
'''


def test_counts_code_lines_only():
    # import, class, both lines of x, both lines of the def, both of the return
    assert code_lines.code_lines(FIXTURE) == 8


def test_against_prints_both_trees_and_the_difference(tmp_path, monkeypatch, capsys):
    here, there = tmp_path / "here", tmp_path / "there" / "src" / "cbrsim"
    here.mkdir()
    there.mkdir(parents=True)
    (here / "a.py").write_text("x = 1\ny = 2\n")
    (there / "a.py").write_text("x = 1\n# gone\ny = 2\nz = 3\n")
    (there / "b.py").write_text('"""Only a docstring."""\nb = 1\n')
    monkeypatch.setattr(code_lines, "PACKAGE", here)
    assert code_lines.main(["--against", str(tmp_path / "there")]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "a.py                      3      2      -1",
        "b.py                      1      0      -1",
        "total                     4      2      -2",
    ]
