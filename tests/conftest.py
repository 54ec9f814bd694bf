"""Shared pytest plumbing.

Collects the one-line verdicts emitted by the acceptance tests and
prints them as a summary section, because the default fd-level capture
would otherwise swallow lines from passing tests. Also measures a call's
peak allocation for the memory-budget tests.
"""

import tracemalloc

_verdicts: list[str] = []


def record_verdict(line: str) -> None:
    _verdicts.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _verdicts:
        return
    terminalreporter.section("acceptance")
    for line in sorted(_verdicts):
        terminalreporter.write_line(line)


def peak_allocation(work) -> int:
    """Peak bytes that ``work()`` holds allocated at once, by tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        work()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
