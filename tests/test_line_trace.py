"""The line tracer: statements that never ran, and nothing else."""

import sys

import line_trace

FIXTURE = '''"""Module docstring."""
import os

LIMIT = 2


def used(x):
    """Function docstring."""
    if x > LIMIT:
        return os.sep
    return (x +
            1)


def unused(y):
    z = y * 2
    for _ in range(3):
        z += 1
    return z
'''

TEST = '''import lt_fixture


def test_used():
    assert lt_fixture.used(3) == lt_fixture.os.sep
    assert lt_fixture.used(0) == 1
'''


def test_reports_each_statement_of_an_uncalled_function(tmp_path, monkeypatch, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "lt_fixture.py").write_text(FIXTURE)
    (tmp_path / "test_fixture.py").write_text(TEST)
    monkeypatch.syspath_prepend(str(package))
    monkeypatch.delitem(sys.modules, "lt_fixture", raising=False)
    monkeypatch.setattr(line_trace, "PACKAGE", package)
    assert line_trace.main([str(tmp_path / "test_fixture.py"), "-q", "-p", "no:cacheprovider"]) == 0
    report = capsys.readouterr().out.splitlines()
    assert [line for line in report if line.startswith("lt_fixture.py")] == [
        "lt_fixture.py:16  z = y * 2",
        "lt_fixture.py:17  for _ in range(3):",
        "lt_fixture.py:18  z += 1",
        "lt_fixture.py:19  return z",
    ]
    assert report[-1] == "4 statements never ran"
