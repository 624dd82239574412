from __future__ import annotations

import gabm


def test_every_exported_name_exists_once():
    # A stale entry breaks only ``from gabm import *``, which nothing else runs.
    missing = [name for name in gabm.__all__ if not hasattr(gabm, name)]
    assert missing == []
    assert len(set(gabm.__all__)) == len(gabm.__all__)
