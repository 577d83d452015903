"""Request/reply channels over TLS sessions.

:class:`TLSConnection` pairs a TLS session with two network endpoints and
exposes ``request``/``serve`` generators. Payloads cross the simulated wire
only in AEAD-sealed form; the paper's "all communication is TLS with PFS"
guarantee (§V-A) is therefore checkable by scanning ``Network.wire_log``.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Generator, Optional, Tuple

from repro import calibration
from repro.crypto.certificates import Certificate
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import PublicKey
from repro.errors import CryptoError
from repro.sim.core import Event, ProcessInterrupt
from repro.sim.network import Endpoint, Network, Site
from repro.tls.handshake import TLSSession, perform_handshake


def _encode(payload: Any) -> bytes:
    return pickle.dumps(payload)


def _decode(data: bytes) -> Any:
    return pickle.loads(data)


class SecureChannel:
    """One direction of an established TLS connection (seal/open helpers)."""

    def __init__(self, session: TLSSession, is_client: bool) -> None:
        self._session = session
        self._is_client = is_client

    def seal(self, payload: Any) -> bytes:
        box = (self._session.client_box if self._is_client
               else self._session.server_box)
        return box.seal(_encode(payload))

    def open(self, sealed: bytes) -> Any:
        box = (self._session.server_box if self._is_client
               else self._session.client_box)
        return _decode(box.open(sealed))


class TLSConnection:
    """A client-side TLS connection to a server endpoint.

    Construction performs the handshake (latency + optional certificate
    verification); ``request`` sends one sealed request and waits for the
    sealed reply.
    """

    def __init__(self, network: Network, client_endpoint: Endpoint,
                 server_endpoint: Endpoint, session: TLSSession,
                 rng: DeterministicRandom) -> None:
        self.network = network
        self.client_endpoint = client_endpoint
        self.server_endpoint = server_endpoint
        self.session = session
        self._rng = rng
        self.client_channel = SecureChannel(session, is_client=True)
        self.server_channel = SecureChannel(session, is_client=False)
        self.requests_sent = 0
        self._request_seq = 0
        self.stale_replies_dropped = 0

    @classmethod
    def connect(cls, network: Network, client_name: str, client_site: Site,
                server_endpoint: Endpoint, rng: DeterministicRandom,
                server_certificate: Optional[Certificate] = None,
                trusted_root: Optional[PublicKey] = None,
                client_certificate: Optional[Certificate] = None,
                telemetry=None,
                ) -> Generator[Event, Any, "TLSConnection"]:
        """Handshake and build a connection; a simulation process."""
        session = yield network.simulator.process(perform_handshake(
            network.simulator, rng.fork(b"handshake:" + client_name.encode()),
            client_site, server_endpoint.site,
            server_certificate=server_certificate,
            trusted_root=trusted_root,
            client_certificate=client_certificate,
            telemetry=telemetry,
        ))
        client_endpoint = network.endpoint(client_name, client_site)
        return cls(network, client_endpoint, server_endpoint, session, rng)

    def request(self, payload: Any, size_bytes: int = 512,
                ) -> Generator[Event, Any, Any]:
        """Send one request and wait for the reply; returns the reply payload.

        Each request carries a sealed request id and the reply echoes it:
        under retries, a stale or duplicated reply (the network may deliver
        twice, and a timed-out attempt's reply can arrive after the retry's
        request) is discarded instead of being mistaken for the answer.
        An interrupted request (a :meth:`Simulator.with_timeout` deadline)
        cancels its mailbox getter so the abandoned attempt cannot steal
        the reply meant for the retry.
        """
        simulator = self.network.simulator
        self._request_seq += 1
        rid = self._request_seq
        sealed = self.client_channel.seal({"rid": rid, "body": payload})
        yield simulator.timeout(calibration.TLS_RECORD_CRYPTO_SECONDS)
        self.client_endpoint.send(self.server_endpoint,
                                  {"session": self.session.session_id,
                                   "data": sealed},
                                  size_bytes=size_bytes,
                                  reply_to=self.client_endpoint)
        self.requests_sent += 1
        while True:
            pending = self.client_endpoint.receive()
            try:
                message = yield pending
            except ProcessInterrupt:
                self.client_endpoint.inbox.cancel(pending)
                raise
            yield simulator.timeout(calibration.TLS_RECORD_CRYPTO_SECONDS)
            reply = self.client_channel.open(message.payload["data"])
            if isinstance(reply, dict) and reply.get("rid") == rid:
                return reply["body"]
            self.stale_replies_dropped += 1


class TLSServer:
    """Server-side dispatcher: one handler per connection-less request.

    PALAEMON's REST API and approval services use this. Sessions are tracked
    by id so the server can unseal with the right key; the handler is a
    callable ``(request_payload, session) -> reply`` or a generator process
    for handlers that consume simulated time.
    """

    def __init__(self, network: Network, endpoint: Endpoint,
                 handler: Callable[[Any, TLSSession], Any]) -> None:
        self.network = network
        self.endpoint = endpoint
        self.handler = handler
        self._sessions: dict = {}
        self.requests_served = 0
        self._running = False

    def register_session(self, session: TLSSession) -> None:
        self._sessions[session.session_id] = session

    def start(self) -> None:
        """Begin serving (spawns the accept loop as a process)."""
        if self._running:
            return
        self._running = True
        self.network.simulator.process(self._serve_loop(),
                                       name=f"tls-server-{self.endpoint.name}")

    def stop(self) -> None:
        self._running = False
        self.endpoint.close()

    def _open(self, payload: Any,
              ) -> Optional[Tuple[TLSSession, SecureChannel, Any]]:
        """``(session, channel, envelope)`` for an authentic record.

        Returns None for anything else: a non-mapping payload, a
        non-bytes session id or record, an unknown session, or a record
        failing its AEAD check. No datagram can kill the serve loop.
        """
        if not isinstance(payload, dict):
            return None
        session_id, data = payload.get("session"), payload.get("data")
        if not (isinstance(session_id, bytes) and isinstance(data, bytes)):
            return None
        session = self._sessions.get(session_id)
        if session is None:
            return None
        channel = SecureChannel(session, is_client=False)
        try:
            return session, channel, channel.open(data)
        except CryptoError:
            return None

    def _serve_loop(self) -> Generator[Event, Any, None]:
        from repro.sim.resources import StoreClosed

        simulator = self.network.simulator
        while self._running:
            try:
                message = yield self.endpoint.receive()
            except StoreClosed:
                return
            record = self._open(message.payload)
            if record is None:
                continue  # not an authentic record: drop, like a TLS alert
            session, server_channel, envelope = record
            rid = None
            request = envelope
            if isinstance(envelope, dict) and "rid" in envelope:
                rid = envelope["rid"]
                request = envelope.get("body")
            yield simulator.timeout(calibration.TLS_RECORD_CRYPTO_SECONDS)
            result = self.handler(request, session)
            if hasattr(result, "__next__"):
                result = yield simulator.process(result)
            sealed = server_channel.seal({"rid": rid, "body": result})
            self.requests_served += 1
            message.reply_to and self.endpoint.send(
                message.reply_to,
                {"session": session.session_id, "data": sealed})
