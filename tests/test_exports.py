"""The package's public names."""

import gxstplc


def test_every_export_resolves():
    assert len(gxstplc.__all__) == len(set(gxstplc.__all__))
    missing = [name for name in gxstplc.__all__ if not hasattr(gxstplc, name)]
    assert missing == []
