"""Shared fixtures for the end-to-end benchmark's self-tests."""

import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# The self-tests import ``repro`` from this checkout, as the children do.
sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.fixture
def copy_checkout(tmp_path):
    """Factory: a scratch checkout holding ``BENCHMARK.json``, this
    directory and, unless ``with_src`` is false, a link to ``src``."""

    def make(with_src: bool = True):
        shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
        if with_src:
            (tmp_path / "src").symlink_to(os.path.join(ROOT, "src"))
        return tmp_path

    return make
