"""Hypothesis runs derandomized, without an example database or per-example
deadline, so the suite is reproducible. Its remaining cache (source
constants, written at collection) goes to a temporary directory removed
at exit, so a run leaves no .hypothesis/ in the working tree."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fwdreg", derandomize=True, database=None, deadline=None)
settings.load_profile("fwdreg")


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
