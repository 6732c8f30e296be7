from __future__ import annotations

import types

import stiefelq


def test_all_lists_every_public_name():
    # every public function, class and constant the package binds, and no
    # submodule, is in __all__, once
    public = {
        name
        for name, value in vars(stiefelq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(stiefelq.__all__) == public
    assert len(stiefelq.__all__) == len(public)
