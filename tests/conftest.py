"""One Hypothesis profile for the whole suite: the same examples on every
run, no per-example deadline, and no health check for slow data
generation. Each test sets only its own max_examples.

Every test also runs under a wall-clock limit, so a defect that makes a
loop endless (a row insertion that never clears its leading column, say)
fails that test instead of hanging the suite."""

import signal

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "tier1", derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("tier1")

# Far above the slowest test, under a second on a 2-core x86-64 host.
TEST_TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that outruns TEST_TIME_LIMIT_S. Not an Exception,
    so no handler in the code under test swallows it, and Hypothesis,
    which would catch a test failure and run the example again to shrink
    it, passes it straight on."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test once it has run TEST_TIME_LIMIT_S seconds, through a
    SIGALRM timer; where the platform has no SIGALRM, no limit applies."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran longer than its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
