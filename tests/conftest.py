import os
from pathlib import Path

import pytest

import jordan_spectra


@pytest.fixture(scope="session")
def cli_env():
    """Environment for `python -m jordan_spectra.cli` children.

    The package may be importable here only through a relative PYTHONPATH
    entry (such as ``src``) or pytest's ``pythonpath`` setting, neither of
    which reaches a child reliably; put the directory holding the imported
    package first on the child's PYTHONPATH, absolute.
    """
    package_root = str(Path(jordan_spectra.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + inherited if inherited else package_root
    return env
