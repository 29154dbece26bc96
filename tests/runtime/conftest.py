"""Shared guards for the runtime tests.

``pytest-timeout`` is not vendored in this environment, so the
hung-worker guard the worker-thread tests need is an autouse SIGALRM
fixture: any test in this directory that wedges (a deadlocked mailbox, a
worker that never joins) is killed after ``HARD_TIMEOUT_S`` wall seconds
instead of hanging the suite.  CI layers a job-level ``timeout-minutes``
on top.
"""

from __future__ import annotations

import signal

import pytest

HARD_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def hard_timeout():
    """Fail the test with TimeoutError if it runs longer than the guard."""

    def _expired(signum, frame):
        raise TimeoutError(
            f"runtime test exceeded the {HARD_TIMEOUT_S}s hung-worker guard"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
