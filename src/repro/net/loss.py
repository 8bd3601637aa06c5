"""Injectable loss models.

Buffer overrun (:mod:`repro.net.buffers`) is the paper's *natural* loss
mechanism, but controlled experiments need loss at a chosen rate or at a
chosen PDU.  A :class:`LossModel` decides, per (src, dst, PDU), whether the
network should discard the copy before it reaches the destination buffer.

Models compose with :class:`CompositeLoss` (a copy is dropped if *any*
component drops it).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Set, Tuple


class LossModel:
    """Interface: decide whether to drop one copy of a PDU."""

    def should_drop(self, src: int, dst: int, pdu: Any, rng: random.Random) -> bool:
        raise NotImplementedError


class NoLoss(LossModel):
    """The reliable medium: never drops."""

    def should_drop(self, src: int, dst: int, pdu: Any, rng: random.Random) -> bool:
        return False


class BernoulliLoss(LossModel):
    """Each copy is dropped independently with probability ``rate``.

    ``protect_control=True`` exempts RET and heartbeat PDUs; the paper's
    network is error-free (only data-plane receivers overrun), and protecting
    control PDUs keeps loss-rate sweeps measuring recovery of *data* rather
    than of the recovery machinery itself.  Set it to ``False`` to stress
    the RET retry timers too.
    """

    def __init__(self, rate: float, protect_control: bool = False):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.protect_control = protect_control

    def should_drop(self, src: int, dst: int, pdu: Any, rng: random.Random) -> bool:
        if self.rate == 0.0:
            return False
        if self.protect_control and getattr(pdu, "is_control", False):
            return False
        return rng.random() < self.rate


class BurstLoss(LossModel):
    """Gilbert–Elliott two-state burst loss.

    The channel for each (src, dst) pair alternates between a GOOD state
    (loss probability ``good_loss``) and a BAD state (``bad_loss``), with
    per-copy transition probabilities ``p_good_to_bad`` / ``p_bad_to_good``.
    Models correlated overruns: once a receiver falls behind it stays behind
    for a while.
    """

    def __init__(
        self,
        p_good_to_bad: float = 0.01,
        p_bad_to_good: float = 0.2,
        good_loss: float = 0.0,
        bad_loss: float = 0.5,
    ):
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("good_loss", good_loss),
            ("bad_loss", bad_loss),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self._bad: Dict[Tuple[int, int], bool] = {}

    def should_drop(self, src: int, dst: int, pdu: Any, rng: random.Random) -> bool:
        key = (src, dst)
        bad = self._bad.get(key, False)
        if bad:
            if rng.random() < self.p_bad_to_good:
                bad = False
        else:
            if rng.random() < self.p_good_to_bad:
                bad = True
        self._bad[key] = bad
        rate = self.bad_loss if bad else self.good_loss
        return rng.random() < rate


class ScriptedLoss(LossModel):
    """Drop exactly the copies named in advance — for scripted scenarios.

    Targets are ``(src, seq, dst)`` triples matched against data PDUs; each
    target fires once (retransmissions of the same PDU get through), which is
    how the tests stage Figure 6's two failure-detection cases.
    """

    def __init__(self, targets: List[Tuple[int, int, int]]):
        self._pending: Set[Tuple[int, int, int]] = set(targets)
        self.fired: List[Tuple[int, int, int]] = []

    def should_drop(self, src: int, dst: int, pdu: Any, rng: random.Random) -> bool:
        seq = getattr(pdu, "seq", None)
        if seq is None:
            return False
        key = (src, seq, dst)
        if key in self._pending:
            self._pending.discard(key)
            self.fired.append(key)
            return True
        return False

    @property
    def exhausted(self) -> bool:
        """True once every scripted drop has fired."""
        return not self._pending


class PartitionLoss(LossModel):
    """A healable network partition: copies crossing group boundaries drop.

    ``split(groups...)`` installs a partition — each group is a set of
    entity indices, and a copy is delivered only when src and dst share a
    group (an index in no group is isolated entirely).  ``heal()`` removes
    it.  Scenario scripts (the nemesis harness) call both at scheduled
    simulated times, so partitions start and end deterministically.
    """

    def __init__(self) -> None:
        self._group_of: Dict[int, int] = {}
        self._active = False
        #: Copies dropped at a partition boundary, for assertions.
        self.partitioned_drops = 0

    def split(self, *groups: Set[int]) -> None:
        """Partition the cluster into the given disjoint groups."""
        group_of: Dict[int, int] = {}
        for gi, group in enumerate(groups):
            for member in group:
                if member in group_of:
                    raise ValueError(f"entity {member} in more than one group")
                group_of[member] = gi
        self._group_of = group_of
        self._active = True

    def heal(self) -> None:
        """Remove the partition: all pairs connected again."""
        self._active = False
        self._group_of = {}

    @property
    def active(self) -> bool:
        return self._active

    def should_drop(self, src: int, dst: int, pdu: Any, rng: random.Random) -> bool:
        if not self._active:
            return False
        sg = self._group_of.get(src)
        dg = self._group_of.get(dst)
        if sg is None or dg is None or sg != dg:
            self.partitioned_drops += 1
            return True
        return False


class LinkLoss(LossModel):
    """Block individual *directed* links: asymmetric partitions.

    :class:`PartitionLoss` models symmetric splits; real partitions are
    often one-way (a failing NIC receive path, an asymmetric route).  A
    blocked ``(src, dst)`` pair drops every copy in that direction while
    the reverse direction still delivers — the nastiest case for the
    protocol, because the impaired member keeps being heard (so it is
    never suspected) while its knowledge silently freezes.
    """

    def __init__(self) -> None:
        self._blocked: Set[Tuple[int, int]] = set()
        #: Copies dropped on blocked links, for assertions.
        self.blocked_drops = 0

    def block(self, src: int, dst: int) -> None:
        """Drop everything flowing ``src -> dst`` until healed."""
        self._blocked.add((src, dst))

    def block_towards(self, dst: int, sources: Set[int]) -> None:
        """Block every ``source -> dst`` link (a deaf receiver)."""
        for src in sources:
            if src != dst:
                self._blocked.add((src, dst))

    def heal(self) -> None:
        """Reconnect every blocked link."""
        self._blocked.clear()

    @property
    def active(self) -> bool:
        return bool(self._blocked)

    def should_drop(self, src: int, dst: int, pdu: Any, rng: random.Random) -> bool:
        if (src, dst) in self._blocked:
            self.blocked_drops += 1
            return True
        return False


class TargetedLoss(LossModel):
    """Bernoulli loss aimed at copies *towards* a set of victims.

    Models a loss storm localised at specific receivers (an overloaded
    switch port, a congested uplink).  ``rate`` is mutable so a scenario
    script can start and stop the storm at scheduled simulated times.
    """

    def __init__(self, victims: Set[int], rate: float):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.victims = set(victims)
        self.rate = rate
        #: Copies dropped by the storm, for assertions.
        self.storm_drops = 0

    def should_drop(self, src: int, dst: int, pdu: Any, rng: random.Random) -> bool:
        if self.rate == 0.0 or dst not in self.victims:
            return False
        if rng.random() < self.rate:
            self.storm_drops += 1
            return True
        return False


class CorruptionLoss(LossModel):
    """Flip one byte of the encoded frame with probability ``rate``.

    Models a corrupting medium in front of the codec's CRC trailer: each
    hit encodes the PDU, flips one byte, and attempts to decode the damaged
    frame.  The checksum is expected to reject it, in which case the copy
    is dropped (exactly what a real receiver does with a bad frame); the
    pathological case where the flip still decodes is counted separately
    so the integrity tests can assert it never happens.

    ``targets`` are ``(src, seq, dst)`` data copies damaged whatever the
    draw, each once (as :class:`ScriptedLoss` drops them), so a scenario
    meets at least one corruption by construction.
    """

    def __init__(self, rate: float, targets: Sequence[Tuple[int, int, int]] = ()):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._targets: Set[Tuple[int, int, int]] = set(targets)
        #: Frames corrupted and (correctly) rejected by the checksum.
        self.corrupt_frames = 0
        #: Corrupted frames the checksum failed to reject — should stay 0.
        self.undetected_corruptions = 0

    def should_drop(self, src: int, dst: int, pdu: Any, rng: random.Random) -> bool:
        key = (src, getattr(pdu, "seq", None), dst)
        if key in self._targets:
            self._targets.discard(key)
        elif self.rate == 0.0 or rng.random() >= self.rate:
            return False
        from repro.core.codec import decode_pdu_safe, encode_pdu_into

        frame = bytearray()
        end = encode_pdu_into(pdu, frame)
        del frame[end:]
        position = rng.randrange(len(frame))
        flip = rng.randrange(1, 256)
        frame[position] ^= flip
        if decode_pdu_safe(frame) is None:
            self.corrupt_frames += 1
        else:
            self.undetected_corruptions += 1
        # Either way the damaged frame does not reach the engine: a detected
        # corruption is discarded by the receiver's codec, and the protocol
        # recovers it like any other loss.
        return True


class DuplicatingChannel:
    """Policy deciding how many *extra* copies of a PDU the network sends.

    Models a medium that occasionally duplicates frames (retransmitting
    switches, overlapping multicast trees).  ``extra_copies`` is consulted
    once per (src, dst, pdu) copy and returns how many duplicates to
    schedule after the original — bounded by ``max_extra`` so a scripted
    scenario cannot amplify without limit.  Duplicates travel with their
    own delay draw, but per-pair FIFO clamping in the network still holds.
    """

    def __init__(self, rate: float, max_extra: int = 1):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if max_extra < 1:
            raise ValueError(f"max_extra must be >= 1, got {max_extra}")
        self.rate = rate
        self.max_extra = max_extra
        #: Total duplicate copies produced, for assertions.
        self.duplicated = 0

    def extra_copies(self, src: int, dst: int, pdu: Any, rng: random.Random) -> int:
        if self.rate == 0.0 or rng.random() >= self.rate:
            return 0
        extra = rng.randint(1, self.max_extra)
        self.duplicated += extra
        return extra


class CompositeLoss(LossModel):
    """Drop when any component model drops (union of loss processes)."""

    def __init__(self, models: List[LossModel]):
        self.models = list(models)

    def should_drop(self, src: int, dst: int, pdu: Any, rng: random.Random) -> bool:
        # Evaluate every component so stateful models (BurstLoss) advance
        # their chains consistently regardless of short-circuiting.
        verdicts = [m.should_drop(src, dst, pdu, rng) for m in self.models]
        return any(verdicts)
