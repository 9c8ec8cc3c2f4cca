"""Network front door: sockets, streaming, and multi-tenant admission.

The concurrent edge over :mod:`repro.serve` — a TCP server run by one
``selectors`` loop (:class:`NetServer`) speaking a newline-delimited JSON
protocol (:mod:`~repro.serve.net.protocol`), with per-tenant token-bucket rate
limits, weighted fair-share queueing, queue-depth backpressure and
deadline propagation (:mod:`~repro.serve.net.admission`), token-by-token
streamed responses, and graceful drain.  :class:`NetClient` is the
synchronous client library the load generator and evaluation harnesses
drive it with.

Quickstart::

    from repro.serve.net import NetClient, NetServerThread, NetServerConfig

    handle = NetServerThread(model, net_config=NetServerConfig())
    host, port = handle.start()
    with NetClient(host, port, tenant="eng") as client:
        result = client.complete(prompt_ids=[1, 7, 8],
                                 params={"max_new_tokens": 16})
        print(result.token_ids)
    handle.drain()   # finish in-flight work, refuse new work
    handle.stop()

See DESIGN.md §9 for the wire grammar and the admission-control model.
"""

from . import protocol
from .admission import (AdmissionController, AdmissionDecision, TenantConfig,
                        TokenBucket)
from .client import NetClient, NetClientError, ShedError, StreamResult
from .protocol import ProtocolError
from .server import NetServer, NetServerConfig, NetServerThread

__all__ = [
    "protocol", "ProtocolError",
    "AdmissionController", "AdmissionDecision", "TenantConfig", "TokenBucket",
    "NetClient", "NetClientError", "ShedError", "StreamResult",
    "NetServer", "NetServerConfig", "NetServerThread",
]
