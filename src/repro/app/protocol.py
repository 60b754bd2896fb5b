"""memcached-flavoured request/response messages.

We model the text protocol's framing sizes without simulating bytes:
a GET request is roughly ``get <key>\\r\\n``; a SET carries the value.
Responses carry the value (GET hit), ``END`` (miss), or ``STORED``.
Sizes feed the transport, which charges them against windows and links.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ProtocolError

_request_ids = itertools.count(1)

#: Fixed framing overhead for a request line / response header.
REQUEST_OVERHEAD = 16
RESPONSE_OVERHEAD = 24
MISS_RESPONSE_SIZE = 8
STORED_RESPONSE_SIZE = 8


class Op(enum.Enum):
    """Supported operations (the paper's workload is a 50-50 GET/SET mix)."""

    GET = "get"
    SET = "set"


# Bound once: a member read inside a function costs an
# ``EnumType.__getattr__`` call on CPython 3.11, and every request reads
# its op.
_GET = Op.GET
_SET = Op.SET


@dataclass
class Request:
    """One client operation.

    ``sent_at`` is stamped by the client when the request enters the
    transport; the client computes ground-truth latency (``T_client``)
    from it when the response returns.  The LB never reads it.
    """

    op: Op
    key: str
    value_size: int = 0
    request_id: int = field(default_factory=lambda: next(_request_ids))
    sent_at: int = 0

    def __post_init__(self) -> None:
        if not self.key:
            raise ProtocolError("empty key")
        if self.op is _SET and self.value_size <= 0:
            raise ProtocolError("SET requires a positive value size")
        if self.op is _GET and self.value_size != 0:
            raise ProtocolError("GET carries no value")

    @property
    def wire_size(self) -> int:
        """Bytes this request occupies on the wire (excl. TCP header)."""
        size = REQUEST_OVERHEAD + len(self.key)
        if self.op is _SET:
            size += self.value_size
        return size


@dataclass
class Response:
    """Server's reply, matched to the request by ``request_id``."""

    request_id: int
    op: Op
    hit: bool
    value_size: int = 0
    server: Optional[str] = None
    queue_delay: int = 0
    service_time: int = 0

    @property
    def wire_size(self) -> int:
        """Bytes of the response on the wire (excl. TCP header)."""
        if self.op is _GET:
            if self.hit:
                return RESPONSE_OVERHEAD + self.value_size
            return MISS_RESPONSE_SIZE
        return STORED_RESPONSE_SIZE
