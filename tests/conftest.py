"""Fixtures shared by every test module."""

import pytest

from critforge import arithstruct


@pytest.fixture(autouse=True)
def empty_factorization_memo():
    """Start each test with no factorization kept from an earlier one, so
    a test that patches ``_Elimination`` or ``smith_normal_form`` sees its
    patch used."""
    arithstruct._last[:] = None, None, None
