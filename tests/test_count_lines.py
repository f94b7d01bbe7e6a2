"""scripts/count_lines.py counts source lines and code lines."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    path = ROOT / "scripts" / "count_lines.py"
    spec = importlib.util.spec_from_file_location("count_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps the line


# a comment line
class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        """Function
        docstring."""
        return (1,
                2)
'''


def test_count_lines_skips_docstrings_comments_and_blanks():
    count_lines = _load_script().count_lines
    # code: import, class, x = (2 lines), def, return (2 lines)
    assert count_lines(SOURCE) == (18, 7)
    assert count_lines("") == (0, 0)
    assert count_lines("x = 1\n\n# end\n") == (3, 1)


def test_count_lines_reports_each_file_and_the_total(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "count_lines.py"), str(path)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0].split() == ["18", "7", "mod.py"]
    assert out[-1].split()[:2] == ["18", "7"]
