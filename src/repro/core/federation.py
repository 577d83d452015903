"""Decentralized PALAEMON: secret sharing between service instances.

The paper evaluates "the retrieval of keys from remote PALAEMON services
... when using PALAEMON in a decentralized fashion" (Fig 12) and lists
"secret sharing between service instances" among the features absent from
other KMSs (§VII). This module implements that federation layer:

- instances *peer* after mutually attesting (each verifies the other's
  CA certificate, so only genuine PALAEMON builds join the mesh);
- a policy's secrets can be fetched from a peer when the local instance
  does not hold the policy, subject to the same export rules that govern
  cross-policy imports;
- all peer traffic rides TLS sessions (:mod:`repro.tls.channel`), the
  same request/reply transport as the REST front-end, so the paper's
  "all communication is TLS with PFS" (§V-A) holds on the wire and the
  Fig 12 geography sensitivity comes from connection establishment.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.core.dispatch import (
    AUTH_PEER,
    DEFAULT_REGISTRY,
    DispatchContext,
    reply_value,
)
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import PublicKey
from repro.errors import (
    AccessDeniedError,
    AttestationError,
    PolicyNotFoundError,
)
from repro.sim.core import Event, Simulator
from repro.sim.network import Network, Site
from repro.sim.retry import RetryPolicy
from repro.tls.channel import TLSConnection, TLSServer
from repro.tls.handshake import TLSSession


class FederatedInstance:
    """A PALAEMON instance participating in a federation mesh.

    Every instance serves ``fed-{name}`` through a :class:`TLSServer`.
    Peering opens one TLS connection each way, each from its own client
    endpoint (``fed-{a}-to-{b}``). A fetch is one sealed request/reply
    that an attached :class:`~repro.sim.faults.FaultPlan` can drop,
    duplicate, delay or black out. The server side runs each request
    through the service's dispatcher as transport ``federation``, so a
    refusal travels back as a typed error reply.
    """

    def __init__(self, service: PalaemonService, site: Site,
                 ca_root: PublicKey, network: Network,
                 rng: Optional[DeterministicRandom] = None) -> None:
        self.service = service
        self.site = site
        self.ca_root = ca_root
        self.network = network
        #: The attested, long-lived TLS connection to each peer, by name.
        self._links: Dict[str, TLSConnection] = {}
        #: Peer name by TLS session id, for requests arriving on the server.
        self._peer_sessions: Dict[bytes, str] = {}
        self._rng = rng or DeterministicRandom(
            b"federation:" + service.name.encode())
        self.endpoint = network.endpoint(f"fed-{service.name}", site)
        self._server = TLSServer(network, self.endpoint, self._handle)
        self._server.start()

    @property
    def simulator(self) -> Simulator:
        return self.service.simulator

    @property
    def name(self) -> str:
        return self.service.name

    # -- peering ---------------------------------------------------------

    def peer_with(self, other: "FederatedInstance",
                  ) -> Generator[Event, Any, None]:
        """Mutually attest and open a persistent TLS connection each way.

        The two handshakes run concurrently, so peering costs one
        handshake latency.
        """
        for side, counterpart in ((self, other), (other, self)):
            certificate = counterpart.service.certificate
            if certificate is None:
                raise AttestationError(
                    f"instance {counterpart.name!r} has no CA certificate")
            certificate.verify(now=self.simulator.now,
                               trusted_root=side.ca_root)
            if certificate.public_key != counterpart.service.public_key:
                raise AttestationError(
                    f"instance {counterpart.name!r} presented a certificate "
                    f"for a different key")
        outbound, inbound = yield self.simulator.all_of(
            [self._dial(other), other._dial(self)])
        for side, counterpart, connection in ((self, other, outbound),
                                              (other, self, inbound)):
            side._links[counterpart.name] = connection
            counterpart._server.register_session(connection.session)
            counterpart._peer_sessions[connection.session.session_id] = (
                side.name)
            side.service.telemetry.inc("palaemon_federation_peers_total")
            side.service.telemetry.gauge("palaemon_federation_peer_links",
                                         len(side._links))
            side.service.telemetry.audit("federation.peer",
                                         peer=counterpart.name,
                                         site=counterpart.site.value)

    def _dial(self, other: "FederatedInstance") -> Event:
        """Handshake with ``other``'s server from a per-peer endpoint."""
        return self.simulator.process(TLSConnection.connect(
            self.network, f"fed-{self.name}-to-{other.name}", self.site,
            other.endpoint, self._rng.fork(b"link:" + other.name.encode()),
            server_certificate=other.service.certificate,
            client_certificate=self.service.certificate,
            telemetry=other.service.telemetry))

    def peers(self) -> List[str]:
        return sorted(self._links)

    # -- remote secret retrieval ----------------------------------------------

    def fetch_remote_secrets(self, peer_name: str, policy_name: str,
                             requesting_policy: str,
                             secret_names: List[str],
                             ) -> Generator[Event, Any, Dict[str, bytes]]:
        """Retrieve exported secrets of a policy held by a peer.

        The peer enforces the owning policy's export list against the
        *requesting* policy's name — federation does not widen access, it
        only moves it across instances. One request fetches any number of
        secrets (the Fig 12 flatness). An error reply re-raises the
        peer's typed verdict.
        """
        connection = self._links.get(peer_name)
        if connection is None:
            raise AttestationError(f"no attested link to {peer_name!r}")
        telemetry = self.service.telemetry
        with telemetry.span("federation.fetch", peer=peer_name,
                            policy=policy_name):
            reply = yield from connection.request({
                "route": "federation.fetch", "policy": policy_name,
                "requesting_policy": requesting_policy,
                "secrets": list(secret_names)})
            secrets = reply_value(reply)
        telemetry.inc("palaemon_federation_fetches_total")
        telemetry.audit("federation.fetch", peer=peer_name,
                        policy=policy_name,
                        requesting_policy=requesting_policy,
                        secrets=len(secrets))
        return secrets

    def fetch_remote_secrets_with_retry(
            self, peer_name: str, policy_name: str, requesting_policy: str,
            secret_names: List[str],
            retry_policy: Optional[RetryPolicy] = None,
            rng: Optional[DeterministicRandom] = None,
            ) -> Generator[Event, Any, Dict[str, bytes]]:
        """:meth:`fetch_remote_secrets` under a bounded retry budget.

        The default policy gives every attempt a 1 s deadline, so a
        partition turns into :class:`DeadlineExceededError` + backoff
        instead of an unbounded hang; if the partition outlasts the
        budget, :class:`~repro.errors.RetryExhaustedError` propagates.
        """
        retry_policy = retry_policy or RetryPolicy(
            max_attempts=5, base_delay=0.1, attempt_timeout=1.0)
        rng = rng or self._rng.fork(b"fetch-retry")
        result = yield self.simulator.process(retry_policy.call(
            self.simulator,
            lambda: self.fetch_remote_secrets(
                peer_name, policy_name, requesting_policy, secret_names),
            rng, operation="federation.fetch",
            telemetry=self.service.telemetry),
            name=f"fed-fetch-retry-{self.name}")
        return result

    def _handle(self, request: Any, session: TLSSession) -> Dict[str, Any]:
        """Serve one peer request through the dispatch pipeline.

        The dispatcher serves a peer only the ``federation.*`` routes;
        anything else gets a typed ``unknown_route`` reply.
        """
        return self.service.dispatcher.handle(
            request, transport="federation",
            peer=self._peer_sessions.get(session.session_id), target=self)

    def _serve_secret_request(self, policy_name: str, requesting_policy: str,
                              secret_names: List[str]) -> Dict[str, bytes]:
        policy = self.service.store.get("policies", policy_name)
        if policy is None:
            raise PolicyNotFoundError(
                f"peer {self.name!r} has no policy {policy_name!r}")
        secrets = self.service.store.get("secrets", policy_name)
        result: Dict[str, bytes] = {}
        for name in secret_names:
            if not policy.exports_secret_to(name, requesting_policy):
                self.service.telemetry.audit(
                    "federation.serve", policy=policy_name,
                    requesting_policy=requesting_policy, secret=name,
                    result="denied")
                raise AccessDeniedError(
                    f"policy {policy_name!r} does not export {name!r} to "
                    f"{requesting_policy!r}")
            result[name] = secrets[name].value
        self.service.telemetry.audit(
            "federation.serve", policy=policy_name,
            requesting_policy=requesting_policy, secrets=len(result),
            result="served")
        return result


@DEFAULT_REGISTRY.operation(
    "federation.fetch", fields=("policy", "requesting_policy", "secrets"),
    auth=AUTH_PEER, serving_required=False, transports=("federation",),
    audit=("federation.serve",),
    summary="serve a peer's exported-secret fetch (export-list enforced)")
def _federation_fetch(ctx: DispatchContext) -> Dict[str, bytes]:
    return ctx.target._serve_secret_request(
        ctx.request["policy"], ctx.request["requesting_policy"],
        ctx.request["secrets"])


class Federation:
    """Convenience wrapper: a fully-meshed set of federated instances."""

    def __init__(self) -> None:
        self.instances: Dict[str, FederatedInstance] = {}

    def add(self, instance: FederatedInstance) -> None:
        self.instances[instance.name] = instance

    def connect_all(self) -> Generator[Event, Any, None]:
        """Peer every pair of instances (sequentially, for determinism)."""
        names = sorted(self.instances)
        for i, left in enumerate(names):
            for right in names[i + 1:]:
                yield self.instances[left].simulator.process(
                    self.instances[left].peer_with(self.instances[right]))

    def locate_policy(self, policy_name: str) -> Optional[str]:
        """Name of an instance holding the policy, if any."""
        for name in sorted(self.instances):
            instance = self.instances[name]
            if instance.service.store.get("policies", policy_name) is not None:
                return name
        return None
