"""Suite-wide hooks and fixtures."""
import faulthandler
import os
import sys

import pytest

# Seconds one test may run before the process prints every thread's
# traceback and exits: a hung test fails at once instead of stalling the
# suite until the CI job's timeout.
TEST_TIMEOUT_S = 300

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # pytest captures fd 2 while a test runs and the watchdog exits the
    # process, so the traceback goes to a copy of the real stderr
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _hang_watchdog(pytestconfig):
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True,
                                      file=pytestconfig.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
