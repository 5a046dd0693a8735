import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def time_limit():
    """``with time_limit(seconds, what):`` raises TimeoutError in the block once ``seconds`` pass."""

    @contextmanager
    def limit(seconds: int, what: str):
        def overrun(signum, frame):
            raise TimeoutError(f"{what} still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, overrun)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
