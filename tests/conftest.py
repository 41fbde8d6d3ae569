import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# The slowest test takes seconds; a kernel that loops forever fails its test
# at this limit instead of hanging the suite and CI.
TEST_TIME_LIMIT_S = 300


class TimeLimitExceeded(BaseException):
    """Raised in a test still running at the limit.  Not an Exception, so
    hypothesis does not take it for a falsifying example and run the test
    again while it shrinks."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test still running after {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
