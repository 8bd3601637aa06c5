"""Unit tests for protocol configuration."""

import dataclasses
import pathlib

import pytest

from repro.core.config import (
    ConfirmationMode,
    DeliveryLevel,
    ProtocolConfig,
    RetransmissionScheme,
)
from repro.core.errors import ConfigurationError


def test_defaults_are_valid_and_not_strict():
    config = ProtocolConfig()
    assert config.window == 8
    assert config.retransmission is RetransmissionScheme.SELECTIVE
    assert config.confirmation is ConfirmationMode.DEFERRED
    assert config.delivery_level is DeliveryLevel.ACKNOWLEDGED
    assert not config.strict_paper_mode


def test_paper_faithful_requires_strict_and_defaults():
    assert not ProtocolConfig().paper_faithful
    assert ProtocolConfig(strict_paper_mode=True).paper_faithful
    assert not ProtocolConfig(
        strict_paper_mode=True,
        retransmission=RetransmissionScheme.GO_BACK_N,
    ).paper_faithful


def test_with_returns_modified_copy():
    base = ProtocolConfig()
    changed = base.with_(window=16)
    assert changed.window == 16
    assert base.window == 8
    assert changed is not base


def test_window_validation():
    with pytest.raises(ConfigurationError):
        ProtocolConfig(window=0)


def test_units_validation():
    with pytest.raises(ConfigurationError):
        ProtocolConfig(units_per_pdu=0)


def test_negative_times_rejected():
    with pytest.raises(ConfigurationError):
        ProtocolConfig(deferred_interval=-1.0)
    with pytest.raises(ConfigurationError):
        ProtocolConfig(ret_timeout=-0.1)
    with pytest.raises(ConfigurationError):
        ProtocolConfig(tick_interval=-0.1)


def test_zero_tick_interval_rejected():
    # No host can drive a zero-period tick: the simulator's timer refuses
    # it and the UDP host would re-arm on every loop iteration.
    with pytest.raises(ConfigurationError, match="tick_interval"):
        ProtocolConfig(tick_interval=0.0)


def test_knob_table_lists_every_field():
    """docs/PROTOCOL.md §19 tables every field, in declaration order."""
    doc = pathlib.Path(__file__).parents[2] / "docs" / "PROTOCOL.md"
    section = doc.read_text().split("## 19. Configuration")[1]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    names = [row.split("|")[1].strip().strip("`") for row in rows]
    assert names == [f.name for f in dataclasses.fields(ProtocolConfig)]


def test_frozen():
    with pytest.raises(Exception):
        ProtocolConfig().window = 3
