"""The package's public surface."""

import tiltbound


def test_every_exported_name_resolves():
    missing = [name for name in tiltbound.__all__ if not hasattr(tiltbound, name)]
    assert not missing
