"""Tests for the package's public export list."""

import spintex


def test_every_exported_name_resolves():
    missing = [name for name in spintex.__all__
               if not hasattr(spintex, name)]
    assert missing == []
