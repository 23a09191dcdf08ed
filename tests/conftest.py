# Pin BLAS/OpenMP to one thread before numpy loads anywhere; the engine's
# determinism contract assumes single-threaded kernels.
import os
import shutil
import tempfile

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Hypothesis caches example constants and unicode tables under ./.hypothesis
# even without an example database, and collects the constants before any
# fixture runs; a temporary home keeps a test run from writing to the tree.
_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="graphncd-hypothesis-")
    os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)
