import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

pytest_plugins = ["pytester"]  # the pytester fixture of tests/test_pytest_settings.py

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # one seeded profile, so every property test repeats exactly in tier-1
    settings.register_profile("dilink", max_examples=200, derandomize=True, deadline=None)
    settings.load_profile("dilink")


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance scorecard (one line per criterion) after the
    test summary, outside pytest's output capture."""
    from helpers import ACCEPTANCE_LINES

    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scorecard")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
