"""The ambient seam both observation layers share (``repro.ambient``)."""

from __future__ import annotations

import pytest

from repro import explain, telemetry

LAYERS = [
    pytest.param(telemetry, telemetry.Telemetry, id="telemetry"),
    pytest.param(explain, explain.ExplainLog, id="explain"),
]


@pytest.mark.parametrize("layer, live", LAYERS)
def test_slot_nests_resets_and_restores_after_a_raise(layer, live):
    outer, inner = live(), live()
    assert layer.current() is layer.NULL
    with layer.activate(outer):
        with layer.activate(inner) as active:
            assert active is inner
            assert layer.current() is inner
        assert layer.current() is outer
        with pytest.raises(RuntimeError, match="the block failed"):
            with layer.activate(inner):
                raise RuntimeError("the block failed")
        assert layer.current() is outer
    assert layer.current() is layer.NULL

    previous = layer.install(outer)
    try:
        assert previous is layer.NULL
        assert layer.install(None) is outer
        assert layer.current() is layer.NULL
    finally:
        layer.install(previous)
    assert layer.current() is layer.NULL


@pytest.mark.parametrize("layer, live", LAYERS)
def test_null_ships_and_merges_nothing(layer, live):
    assert layer.NULL.snapshot() is None
    layer.NULL.merge(live().snapshot())
    assert layer.NULL.snapshot() is None
    assert layer.current() is layer.NULL
