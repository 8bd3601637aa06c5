"""Golden-frame pins for the wire codec.

These hex strings were captured from the codec as of PR 4 (bytes-concat
encoder).  The flat-array/zero-copy rework (ROADMAP item 2) must keep
every frame byte-identical — docs/PROTOCOL.md promises the wire format
is stable, and mixed-version clusters depend on it.  If a test here
fails, the wire format changed: that is a protocol break, not a test to
update casually.
"""

import pytest

from repro.core.codec import decode_pdu, encode_pdu
from repro.core.pdu import (
    BatchPdu,
    DataPdu,
    DigestPdu,
    HeartbeatPdu,
    InterGroupPdu,
    JoinPdu,
    RelayPdu,
    RepairPullPdu,
    RetPdu,
    StatePdu,
    ViewChangePdu,
)

_N = 8
_ACK = tuple(range(1, _N + 1))
_PACK = tuple(range(2, _N + 2))


def _pdus():
    return {
        "data": DataPdu(cid=7, src=3, seq=42, ack=_ACK, buf=512,
                        data=b"payload-bytes", data_size=13),
        "data_null": DataPdu(cid=7, src=3, seq=43, ack=_ACK, buf=512,
                             data=None),
        "ret": RetPdu(cid=7, src=1, lsrc=4, lseq=99, ack=_ACK, buf=64),
        "heartbeat": HeartbeatPdu(cid=7, src=2, ack=_ACK, pack=_PACK,
                                  buf=31, probe=True, view=3),
        "viewchange": ViewChangePdu(cid=7, src=0, view=2, phase="install",
                                    members=(0, 1, 2, 4, 5, 6, 7),
                                    ack=_ACK, buf=16, flush=_PACK),
        "join": JoinPdu(cid=7, src=5, buf=100, ready=True),
        "state": StatePdu(cid=7, src=0, joiner=5, view=2,
                          members=(0, 1, 2, 3, 4, 6, 7),
                          ack=_ACK, pack=_PACK, buf=40),
        # The acceptance-critical frame: a batch of 8 inner DataPdus with
        # per-inner ACK vectors and payloads of varying size.
        "batch8": BatchPdu(cid=7, src=3, ack=_ACK, pack=_PACK, buf=256,
                           pdus=tuple(
                               DataPdu(cid=7, src=3, seq=s,
                                       ack=tuple(min(a, s + i)
                                                 for i, a in enumerate(_ACK)),
                                       buf=200 + s,
                                       data=bytes([65 + s]) * s, data_size=s)
                               for s in range(40, 48)
                           )),
        "batch_empty": BatchPdu(cid=7, src=3, ack=_ACK, pack=_PACK, buf=256,
                                pdus=()),
        # Dissemination extension frame (PR 8): a relay wrapper carrying
        # another member's DataPdu/BatchPdu verbatim plus the relaying
        # path's aggregated knowledge minima.
        "relay_data": RelayPdu(
            cid=7, src=6, path=(3, 1, 6), min_ack=_ACK, min_pack=_PACK,
            buf=128,
            frame=DataPdu(cid=7, src=3, seq=42, ack=_ACK, buf=512,
                          data=b"payload-bytes", data_size=13)),
        "relay_batch": RelayPdu(
            cid=7, src=1, path=(3, 1), min_ack=_ACK, min_pack=_PACK,
            buf=96,
            frame=BatchPdu(cid=7, src=3, ack=_ACK, pack=_PACK, buf=256,
                           pdus=tuple(
                               DataPdu(cid=7, src=3, seq=s,
                                       ack=tuple(min(a, s + i)
                                                 for i, a in enumerate(_ACK)),
                                       buf=200 + s,
                                       data=bytes([65 + s]) * s, data_size=s)
                               for s in range(40, 42)
                           ))),
        # Repair extension frames (PR 7): anti-entropy digest and range pull.
        "digest": DigestPdu(cid=7, src=2, target=5, view=3, ack=_ACK,
                            delivered=_PACK, buf=77),
        "repair_pull": RepairPullPdu(cid=7, src=1, target=6,
                                     ranges=((4, 2, 9), (0, 1, 3), (7, 5, 6)),
                                     ack=_ACK, buf=33),
        # Hierarchy extension frames (PROTOCOL.md §18): the inter-group
        # barrier PDU with payload, with a null payload, and as a
        # cumulative stream ack.
        "intergroup": InterGroupPdu(cid=7, origin_group=1, sender_group=2,
                                    src=11, seq=5, gseq=9,
                                    barrier=(3, 0, 7, 2), buf=64,
                                    data=b"bridge-bytes", data_size=12),
        "intergroup_null": InterGroupPdu(cid=7, origin_group=0,
                                         sender_group=2, src=4, seq=2,
                                         gseq=3, barrier=(1, 1, 0), buf=32,
                                         data=None, data_size=0),
        "intergroup_ack": InterGroupPdu(cid=7, origin_group=1,
                                        sender_group=0, src=0, seq=1,
                                        gseq=6, barrier=(), buf=16,
                                        ack=True),
    }


GOLDEN = {
    "data": "01000000000700030000002a00080000000100000002000000030000000400000005000000060000000700000008000002000000000d7061796c6f61642d62797465738f060569",
    "data_null": "01010000000700030000002b000800000001000000020000000300000004000000050000000600000007000000080000020000000000c7e84261",
    "ret": "02000000000700010004000000630008000000010000000200000003000000040000000500000006000000070000000800000040b9e1a35a",
    "heartbeat": "03010000000700020008000000010000000200000003000000040000000500000006000000070000000800000002000000030000000400000005000000060000000700000008000000090000001f000000036d43ac2d",
    "viewchange": "04020000000700000000000200070008000800000001000200040005000600070000000100000002000000030000000400000005000000060000000700000008000000020000000300000004000000050000000600000007000000080000000900000010141c1d6f",
    "join": "05010000000700050000006465607a00",
    "state": "060000000007000000050000000200070008000000010002000300040006000700000001000000020000000300000004000000050000000600000007000000080000000200000003000000040000000500000006000000070000000800000009000000282fea0b98",
    "batch8": "07000000000700030008000800000001000000020000000300000004000000050000000600000007000000080000000200000003000000040000000500000006000000070000000800000009000001000000005e01000000000700030000002800080000000100000002000000030000000400000005000000060000000700000008000000f000000028696969696969696969696969696969696969696969696969696969696969696969696969696969690000005f01000000000700030000002900080000000100000002000000030000000400000005000000060000000700000008000000f1000000296a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a0000006001000000000700030000002a00080000000100000002000000030000000400000005000000060000000700000008000000f20000002a6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b0000006101000000000700030000002b00080000000100000002000000030000000400000005000000060000000700000008000000f30000002b6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c6c0000006201000000000700030000002c00080000000100000002000000030000000400000005000000060000000700000008000000f40000002c6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d0000006301000000000700030000002d00080000000100000002000000030000000400000005000000060000000700000008000000f50000002d6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e0000006401000000000700030000002e00080000000100000002000000030000000400000005000000060000000700000008000000f60000002e6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f6f0000006501000000000700030000002f00080000000100000002000000030000000400000005000000060000000700000008000000f70000002f7070707070707070707070707070707070707070707070707070707070707070707070707070707070707070707070908a9dd5",
    "batch_empty": "0700000000070003000800000000000100000002000000030000000400000005000000060000000700000008000000020000000300000004000000050000000600000007000000080000000900000100d69508fa",
    "relay_data": "0a000000000700060003000800030001000600000001000000020000000300000004000000050000000600000007000000080000000200000003000000040000000500000006000000070000000800000009000000800000004301000000000700030000002a00080000000100000002000000030000000400000005000000060000000700000008000002000000000d7061796c6f61642d62797465733ef526f7",
    "relay_batch": "0a00000000070001000200080003000100000001000000020000000300000004000000050000000600000007000000080000000200000003000000040000000500000006000000070000000800000009000000600000011507000000000700030008000200000001000000020000000300000004000000050000000600000007000000080000000200000003000000040000000500000006000000070000000800000009000001000000005e01000000000700030000002800080000000100000002000000030000000400000005000000060000000700000008000000f000000028696969696969696969696969696969696969696969696969696969696969696969696969696969690000005f01000000000700030000002900080000000100000002000000030000000400000005000000060000000700000008000000f1000000296a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a9ca00ca7",
    "digest": "08000000000700020005000000030008000000010000000200000003000000040000000500000006000000070000000800000002000000030000000400000005000000060000000700000008000000090000004d8873d2a4",
    "repair_pull": "0900000000070001000600080003000000010000000200000003000000040000000500000006000000070000000800040000000200000009000000000001000000030007000000050000000600000021858a173f",
    "intergroup": "0b000000000700010002000b0000000500000009000400000003000000000000000700000002000000400000000c6272696467652d62797465734638cded",
    "intergroup_null": "0b0200000007000000020004000000020000000300030000000100000001000000000000002000000000f7cbebdf",
    "intergroup_ack": "0b01000000070001000000000000000100000006000000000010000000007b594cdd",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_encode_matches_golden_frame(name):
    pdu = _pdus()[name]
    assert encode_pdu(pdu).hex() == GOLDEN[name], (
        f"wire format changed for {name!r} — this breaks mixed-version "
        f"clusters; see docs/PROTOCOL.md"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_frame_decodes_to_original(name):
    pdu = _pdus()[name]
    decoded = decode_pdu(bytes.fromhex(GOLDEN[name]))
    assert decoded == pdu
