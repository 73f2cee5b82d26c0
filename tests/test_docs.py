"""The README's Library example and the docstring examples run as doctests."""

import doctest
import os

import orgrass.duals
import orgrass.gf2poly
import orgrass.schubert

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_examples():
    result = doctest.testfile(README, module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_duals_docstring_examples():
    result = doctest.testmod(orgrass.duals)
    assert result.attempted > 0
    assert result.failed == 0


def test_gf2poly_docstring_examples():
    result = doctest.testmod(orgrass.gf2poly)
    assert result.attempted > 0
    assert result.failed == 0


def test_schubert_docstring_examples():
    result = doctest.testmod(orgrass.schubert)
    assert result.attempted > 0
    assert result.failed == 0
