"""The repo's pytest settings: with every warning an error, a failing
Hypothesis test is still reported with its falsifying example, and the
run goes on to the next file."""

import pytest

pytest.importorskip("hypothesis")


def test_a_failing_property_test_is_reported_and_the_run_goes_on(pytester, pytestconfig):
    filters = pytestconfig.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        test_a="""
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 5
""",
        test_b="def test_passes():\n    pass\n",
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str()
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
