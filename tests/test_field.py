import pytest

from d21alpha.algebra import build_algebra
from d21alpha.field import is_prime


@pytest.mark.parametrize("bad", [0, 1, 2, 3, 4, 6, 9, 15])
def test_construction_rejects_bad_modulus(bad):
    assert is_prime(bad) == (bad in (2, 3))
    with pytest.raises(ValueError):
        build_algebra(bad, 1)
