"""Every Python file of the repository compiles with warnings as errors.

An invalid escape such as a backslash before a letter in a docstring is a
compile-time warning: a DeprecationWarning up to Python 3.11, a
SyntaxWarning from 3.12.  pytest's `filterwarnings` does not make it an
error, and once a `.pyc` exists nothing compiles the source again, so each
file is compiled here from its text.
"""

import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _compile_errors(paths) -> list[str]:
  errors = []
  for path in paths:
    with warnings.catch_warnings():
      warnings.simplefilter("error")
      try:
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
      except (SyntaxError, Warning) as exc:
        errors.append(f"{path}: {exc}")
  return errors


def test_every_module_compiles_with_warnings_as_errors():
  paths = sorted(p for d in ("src", "tests", "bench")
                 for p in (ROOT / d).rglob("*.py"))
  assert len(paths) > 20
  assert _compile_errors(paths) == []


def test_an_invalid_escape_is_an_error(tmp_path):
  # the check itself: a docstring with an invalid escape fails it
  bad = tmp_path / "bad.py"
  bad.write_text('"""x \\in V"""\n')
  assert len(_compile_errors([bad])) == 1
