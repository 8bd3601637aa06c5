"""Unit tests for the loss models."""

import random
from dataclasses import dataclass

import pytest

from repro.net.loss import (
    BernoulliLoss,
    BurstLoss,
    CompositeLoss,
    NoLoss,
    ScriptedLoss,
)


@dataclass
class FakePdu:
    seq: int = 1
    is_control: bool = False


def test_no_loss_never_drops():
    model = NoLoss()
    rng = random.Random(0)
    assert not any(model.should_drop(0, 1, FakePdu(), rng) for _ in range(100))


def test_bernoulli_zero_rate():
    model = BernoulliLoss(0.0)
    rng = random.Random(0)
    assert not any(model.should_drop(0, 1, FakePdu(), rng) for _ in range(100))


def test_bernoulli_one_rate():
    model = BernoulliLoss(1.0)
    rng = random.Random(0)
    assert all(model.should_drop(0, 1, FakePdu(), rng) for _ in range(100))


def test_bernoulli_rate_roughly_respected():
    model = BernoulliLoss(0.3)
    rng = random.Random(42)
    drops = sum(model.should_drop(0, 1, FakePdu(), rng) for _ in range(5000))
    assert 0.25 < drops / 5000 < 0.35


def test_bernoulli_protect_control():
    model = BernoulliLoss(1.0, protect_control=True)
    rng = random.Random(0)
    assert not model.should_drop(0, 1, FakePdu(is_control=True), rng)
    assert model.should_drop(0, 1, FakePdu(is_control=False), rng)


def test_bernoulli_validates_rate():
    with pytest.raises(ValueError):
        BernoulliLoss(1.5)
    with pytest.raises(ValueError):
        BernoulliLoss(-0.1)


def test_scripted_loss_fires_once_per_target():
    model = ScriptedLoss([(0, 3, 1)])
    rng = random.Random(0)
    assert not model.should_drop(0, 2, FakePdu(seq=2), rng)
    assert model.should_drop(0, 1, FakePdu(seq=3), rng)   # the target
    assert not model.should_drop(0, 1, FakePdu(seq=3), rng)  # retransmission passes
    assert model.exhausted
    assert model.fired == [(0, 3, 1)]


def test_scripted_loss_ignores_seqless_pdus():
    model = ScriptedLoss([(0, 1, 1)])

    class NoSeq:
        pass

    assert not model.should_drop(0, 1, NoSeq(), random.Random(0))
    assert not model.exhausted


def test_scripted_loss_distinguishes_destinations():
    model = ScriptedLoss([(0, 1, 2)])
    rng = random.Random(0)
    assert not model.should_drop(0, 1, FakePdu(seq=1), rng)  # dst=1, not targeted
    assert model.should_drop(0, 2, FakePdu(seq=1), rng)


def test_burst_loss_statistical_behaviour():
    model = BurstLoss(p_good_to_bad=0.05, p_bad_to_good=0.2, good_loss=0.0, bad_loss=1.0)
    rng = random.Random(7)
    outcomes = [model.should_drop(0, 1, FakePdu(), rng) for _ in range(5000)]
    drops = sum(outcomes)
    assert 0 < drops < 5000
    # Losses should be bursty: the drop-after-drop rate must exceed the
    # overall drop rate.
    pairs = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
    rate = drops / len(outcomes)
    conditional = pairs / max(1, drops)
    assert conditional > rate


def test_burst_loss_per_pair_state():
    model = BurstLoss(p_good_to_bad=1.0, p_bad_to_good=0.0, bad_loss=1.0)
    rng = random.Random(0)
    model.should_drop(0, 1, FakePdu(), rng)
    # Pair (0,1) is now BAD; pair (0,2) starts fresh in GOOD and transitions
    # independently.
    assert (0, 1) in model._bad


def test_burst_loss_validation():
    with pytest.raises(ValueError):
        BurstLoss(p_good_to_bad=2.0)


def test_composite_loss_union():
    model = CompositeLoss([NoLoss(), BernoulliLoss(1.0)])
    assert model.should_drop(0, 1, FakePdu(), random.Random(0))


def test_composite_loss_empty():
    assert not CompositeLoss([]).should_drop(0, 1, FakePdu(), random.Random(0))


class TestPartitionLoss:
    def test_inactive_by_default(self):
        from repro.net.loss import PartitionLoss
        model = PartitionLoss()
        rng = random.Random(0)
        assert not model.active
        assert not model.should_drop(0, 3, FakePdu(), rng)

    def test_split_drops_across_groups_only(self):
        from repro.net.loss import PartitionLoss
        model = PartitionLoss()
        rng = random.Random(0)
        model.split({0, 1}, {2, 3})
        assert not model.should_drop(0, 1, FakePdu(), rng)
        assert not model.should_drop(2, 3, FakePdu(), rng)
        assert model.should_drop(0, 2, FakePdu(), rng)
        assert model.should_drop(3, 1, FakePdu(), rng)
        assert model.partitioned_drops == 2

    def test_ungrouped_entity_is_isolated(self):
        from repro.net.loss import PartitionLoss
        model = PartitionLoss()
        rng = random.Random(0)
        model.split({0, 1})  # entity 2 in no group
        assert model.should_drop(0, 2, FakePdu(), rng)
        assert model.should_drop(2, 1, FakePdu(), rng)

    def test_heal_restores_connectivity(self):
        from repro.net.loss import PartitionLoss
        model = PartitionLoss()
        rng = random.Random(0)
        model.split({0}, {1})
        assert model.should_drop(0, 1, FakePdu(), rng)
        model.heal()
        assert not model.active
        assert not model.should_drop(0, 1, FakePdu(), rng)

    def test_overlapping_groups_rejected(self):
        from repro.net.loss import PartitionLoss
        model = PartitionLoss()
        with pytest.raises(ValueError):
            model.split({0, 1}, {1, 2})


class TestCorruptionLoss:
    def _pdu(self):
        from repro.core.pdu import DataPdu
        return DataPdu(cid=0, src=0, seq=1, ack=(1, 1, 1), buf=4, data=b"x" * 32)

    def test_zero_rate_never_fires(self):
        from repro.net.loss import CorruptionLoss
        model = CorruptionLoss(0.0)
        rng = random.Random(0)
        assert not any(model.should_drop(0, 1, self._pdu(), rng) for _ in range(50))

    def test_every_flip_is_detected_and_dropped(self):
        from repro.net.loss import CorruptionLoss
        model = CorruptionLoss(1.0)
        rng = random.Random(7)
        pdu = self._pdu()
        assert all(model.should_drop(0, 1, pdu, rng) for _ in range(200))
        assert model.corrupt_frames == 200
        assert model.undetected_corruptions == 0

    def test_a_target_is_damaged_whatever_the_draw_once(self):
        from repro.net.loss import CorruptionLoss
        model = CorruptionLoss(0.0, targets=[(0, 1, 1)])
        rng = random.Random(0)
        pdu = self._pdu()
        assert not model.should_drop(0, 2, pdu, rng)
        assert model.should_drop(0, 1, pdu, rng)
        assert not model.should_drop(0, 1, pdu, rng)
        assert model.corrupt_frames == 1

    def test_rate_validation(self):
        from repro.net.loss import CorruptionLoss
        with pytest.raises(ValueError):
            CorruptionLoss(1.5)


class TestDuplicatingChannel:
    def test_zero_rate_never_duplicates(self):
        from repro.net.loss import DuplicatingChannel
        channel = DuplicatingChannel(0.0)
        rng = random.Random(0)
        assert all(
            channel.extra_copies(0, 1, FakePdu(), rng) == 0 for _ in range(50)
        )
        assert channel.duplicated == 0

    def test_copies_bounded_by_max_extra(self):
        from repro.net.loss import DuplicatingChannel
        channel = DuplicatingChannel(1.0, max_extra=3)
        rng = random.Random(0)
        copies = [channel.extra_copies(0, 1, FakePdu(), rng) for _ in range(200)]
        assert all(1 <= c <= 3 for c in copies)
        assert channel.duplicated == sum(copies)

    def test_parameter_validation(self):
        from repro.net.loss import DuplicatingChannel
        with pytest.raises(ValueError):
            DuplicatingChannel(-0.1)
        with pytest.raises(ValueError):
            DuplicatingChannel(0.5, max_extra=0)
