from fractions import Fraction

import pytest

from dilink import as_fraction
from dilink.errors import BadParameter


def test_int_and_fraction_pass_through():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)


def test_float_reads_decimal_repr_not_binary():
    # 0.1 the double is not 1/10, but the shortest repr is
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction(0.75) == Fraction(3, 4)


def test_string_accepts_decimal_and_ratio():
    assert as_fraction("0.4") == Fraction(2, 5)
    assert as_fraction("1/6") == Fraction(1, 6)


@pytest.mark.parametrize("bad", ["one half", float("nan"), float("inf"), True, None])
def test_rejects_non_rationals(bad):
    with pytest.raises(BadParameter):
        as_fraction(bad)

