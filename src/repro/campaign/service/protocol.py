"""Wire protocol of the distributed campaign service.

Newline-delimited JSON over TCP: every message is one JSON object per
line, ``type``-tagged.  Two roles connect to the orchestrator, each
declared by the first message (``hello``):

``worker``
    A :class:`~repro.campaign.service.worker.WorkerHost`.  Requests
    cell leases, streams heartbeats (which renew its leases), and
    returns ``result``/``failure`` messages.  Orchestrator → worker
    traffic: ``welcome`` (session parameters), ``lease`` grants,
    ``grant-end`` markers, and ``poke`` nudges when new work arrives.

``client``
    A campaign submitter.  Sends one ``submit`` carrying the cells as
    canonical spec JSON; receives a ``cell`` message per completed
    cell (cached hits first, then results in completion order) and a
    final ``done`` with the campaign stats.

Both directions carry the submitting side's code salt in ``hello``; a
mismatch is refused up front (``error`` message) because results
computed under different simulator sources would not be bit-identical.

Message sizes are bounded by :data:`LINE_LIMIT` (a submit message
carries every cold spec of a campaign).
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

#: asyncio stream line limit — large enough for multi-thousand-cell
#: submit messages.
LINE_LIMIT = 32 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The peer spoke something that is not this protocol."""


async def send(writer: asyncio.StreamWriter, message: dict) -> None:
    """Send one message (a JSON object on its own line)."""
    writer.write(json.dumps(message, sort_keys=True).encode("utf-8") + b"\n")
    await writer.drain()


async def recv(reader: asyncio.StreamReader) -> Optional[dict]:
    """Receive one message; ``None`` on a clean EOF."""
    line = await reader.readline()
    if not line:
        return None
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"undecodable message: {line[:80]!r}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"message without a type: {message!r}")
    return message


async def open_connection(
    host: str, port: int
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """``asyncio.open_connection`` with the protocol's line limit."""
    return await asyncio.open_connection(host, port, limit=LINE_LIMIT)


def parse_address(value: str) -> Tuple[str, int]:
    """Parse ``host:port`` (host defaults to localhost for ``:port``)."""
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"expected an orchestrator address like 127.0.0.1:8765, got {value!r}"
        )
    return host or "127.0.0.1", int(port)
