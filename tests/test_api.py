"""The package's public names."""

import braidbreak as bb


def test_every_public_name_resolves():
    assert len(set(bb.__all__)) == len(bb.__all__)
    for name in bb.__all__:
        getattr(bb, name)
    namespace: dict = {}
    exec("from braidbreak import *", namespace)
    assert set(bb.__all__) <= set(namespace)
