from __future__ import annotations

import types

import mixedsums


def test_submodules_are_not_shadowed():
    from mixedsums import three_squares

    assert isinstance(three_squares, types.ModuleType)
    assert three_squares.three_squares(3).x == 1
    for name in mixedsums.__all__:
        assert not isinstance(getattr(mixedsums, name), types.ModuleType), name
