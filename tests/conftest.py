import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# One line per acceptance criterion, echoed after the test summary so the
# final pytest output shows the pass/fail state of every criterion even when
# stdout capture swallows in-test prints.
_CRITERION_LINES: list[tuple[int, str]] = []


@pytest.fixture(scope="session")
def criterion():
    """Record '[criterion N] PASS/FAIL - desc' and assert the outcome."""

    def _record(num: int, desc: str, ok: bool):
        line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}"
        _CRITERION_LINES.append((num, line))
        print(line)
        assert ok, line

    return _record


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for _, line in sorted(_CRITERION_LINES, key=lambda item: item[0]):
        terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail a test that leaves a child process unreaped, running or exited."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    state = "still running" if pid == 0 else f"pid {pid} exited unreaped with status {status}"
    pytest.fail(f"the test left a child process: {state}")
