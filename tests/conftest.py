"""Refuse to run the suite on a package other than the one ``PYTHONPATH``
names first.

``pyproject.toml``'s ``pythonpath = ["src"]`` puts this checkout's ``src``
ahead of ``PYTHONPATH``.  So ``PYTHONPATH=<other>/src python -m pytest``
would test this checkout's package, not the other one.  When the first
``PYTHONPATH`` entry holds a ``fracvi`` package other than the one
imported, the session stops and names both.  To test another tree's
package with this suite, name it by ``-o pythonpath=<other>/src`` instead.
"""

import os
from pathlib import Path

import pytest

import fracvi


def _shadowed() -> tuple[Path, Path] | None:
    """The package in the first ``PYTHONPATH`` entry and the one imported,
    when they differ."""
    first = os.environ.get("PYTHONPATH", "").split(os.pathsep)[0]
    if not first:
        return None
    named, imported = Path(first, "fracvi").resolve(), Path(fracvi.__file__).parent.resolve()
    if (named / "__init__.py").is_file() and named != imported:
        return named, imported
    return None


def pytest_configure(config):
    shadowed = _shadowed()
    if shadowed is not None:
        raise pytest.UsageError(
            f"PYTHONPATH names the fracvi package {shadowed[0]} first, but pytest's "
            f"pythonpath setting imported {shadowed[1]}; to test {shadowed[0]}, "
            f"pass -o pythonpath={shadowed[0].parent} and leave it out of PYTHONPATH"
        )
