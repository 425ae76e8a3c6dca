"""Coherence protocol messages.

The evaluated system runs a two-level MESI protocol over three virtual
networks (paper Sec. 5, Table 2).  Message-class-to-VN mapping follows
the standard deadlock-free assignment:

* ``REQUEST``  (VN0): GetS / GetM / PutS / PutM and memory requests;
* ``FORWARD``  (VN1): Fwd_GetS / Fwd_GetM / Inv sent by the directory;
* ``RESPONSE`` (VN2): Data / acks — always sinkable, terminating the
  dependence chain.

Messages carrying a 64-byte cache block are 5 flits on the 128-bit
links; everything else is a single control flit.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..noc.packet import (
    CONTROL_PACKET_FLITS,
    DATA_PACKET_FLITS,
    Packet,
    VirtualNetwork,
)


class MessageType(enum.Enum):
    # Requests (VN0)
    """Protocol message kinds with their VN and size attributes."""
    GETS = "GetS"
    GETM = "GetM"
    PUTS = "PutS"
    PUTM = "PutM"
    MEM_READ = "MemRead"
    MEM_WRITE = "MemWrite"
    # Forwards (VN1)
    FWD_GETS = "Fwd_GetS"
    FWD_GETM = "Fwd_GetM"
    INV = "Inv"
    # Responses (VN2)
    DATA = "Data"
    DATA_E = "DataExclusive"
    #: Owner's copy of the block sent to the home on a Fwd_GetS, so the
    #: L2 regains an up-to-date copy.
    OWNER_DATA = "OwnerData"
    ACK_COUNT = "AckCount"
    INV_ACK = "InvAck"
    WB_ACK = "WbAck"
    FWD_NACK = "FwdNack"
    MEM_DATA = "MemData"

    @property
    def vnet(self) -> VirtualNetwork:
        """Virtual network this message class travels on."""
        return _VNET[self]

    @property
    def carries_data(self) -> bool:
        """Whether the message carries a cache block (5 flits)."""
        return self in _DATA_MESSAGES


_VNET = {
    MessageType.GETS: VirtualNetwork.REQUEST,
    MessageType.GETM: VirtualNetwork.REQUEST,
    MessageType.PUTS: VirtualNetwork.REQUEST,
    MessageType.PUTM: VirtualNetwork.REQUEST,
    MessageType.MEM_READ: VirtualNetwork.REQUEST,
    MessageType.MEM_WRITE: VirtualNetwork.REQUEST,
    MessageType.FWD_GETS: VirtualNetwork.FORWARD,
    MessageType.FWD_GETM: VirtualNetwork.FORWARD,
    MessageType.INV: VirtualNetwork.FORWARD,
    MessageType.DATA: VirtualNetwork.RESPONSE,
    MessageType.DATA_E: VirtualNetwork.RESPONSE,
    MessageType.OWNER_DATA: VirtualNetwork.RESPONSE,
    MessageType.ACK_COUNT: VirtualNetwork.RESPONSE,
    MessageType.INV_ACK: VirtualNetwork.RESPONSE,
    MessageType.WB_ACK: VirtualNetwork.RESPONSE,
    MessageType.FWD_NACK: VirtualNetwork.RESPONSE,
    MessageType.MEM_DATA: VirtualNetwork.RESPONSE,
}

_DATA_MESSAGES = {
    MessageType.PUTM,
    MessageType.MEM_WRITE,
    MessageType.DATA,
    MessageType.DATA_E,
    MessageType.OWNER_DATA,
    MessageType.MEM_DATA,
}


class CoherenceMessage:
    """One protocol message; travels as the payload of a NoC packet."""

    __slots__ = ("mtype", "block", "sender", "requester", "ack_count", "version")

    def __init__(
        self,
        mtype: MessageType,
        block: int,
        sender: int,
        requester: Optional[int] = None,
        ack_count: int = 0,
        version: int = 0,
    ) -> None:
        self.mtype = mtype
        self.block = block
        self.sender = sender
        #: The L1 that initiated the transaction this message belongs to
        #: (used to route forwarded data and acks).
        self.requester = requester
        #: For ACK_COUNT/DATA under GetM: invalidations the requester must
        #: collect before completing.
        self.ack_count = ack_count
        #: Block version, for coherence-correctness checking in tests.
        self.version = version

    @property
    def size_flits(self) -> int:
        """Packet size in flits for this message."""
        return DATA_PACKET_FLITS if self.mtype.carries_data else CONTROL_PACKET_FLITS

    def to_packet(self, source: int, destination: int, cycle: int) -> Packet:
        """Wrap the message into a NoC packet."""
        return Packet(
            source=source,
            destination=destination,
            vnet=self.mtype.vnet,
            size_flits=self.size_flits,
            created_at=cycle,
            payload=self,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.mtype.value}(blk={self.block} from={self.sender} "
            f"req={self.requester} acks={self.ack_count} v={self.version})"
        )
