import pytest

from jlcs._util import binary_power


class Counted:
    """An integer that counts the products it takes part in."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.value * other.value)


@pytest.mark.parametrize("e", range(10))
def test_binary_power_makes_no_wasted_product(e):
    # a squaring per bit below the leading one, a product per further set bit
    Counted.products = 0
    one = Counted(1)
    result = binary_power(Counted(3), e, one)
    assert result.value == 3 ** e
    want = 0 if e == 0 else e.bit_length() - 1 + bin(e).count("1") - 1
    assert Counted.products == want
    assert (result is one) == (e == 0)
