import os
import pathlib
import subprocess
import sys

import pytest

import gradedhh

SRC = pathlib.Path(gradedhh.__file__).resolve().parent.parent


@pytest.fixture
def cli_process():
    """Run ``python -m gradedhh.cli ARGS`` in a fresh process that imports
    the package under test, whether or not it is installed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "gradedhh.cli", *argv],
                              capture_output=True, env=env, timeout=600)

    return run
