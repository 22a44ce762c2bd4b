import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis caches the constants of local modules on disk while collecting;
    # keep that cache in a temporary directory so a run leaves nothing in the checkout.
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="qtvd-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)
