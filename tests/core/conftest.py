"""Shared fixtures for PALAEMON core tests.

:class:`Deployment` is the library's :class:`repro.deployment.Deployment`
with the test defaults — a three-member board (``member-0``..``member-2``,
threshold two), an attested client ``client-1`` and a sample application
image — plus the policy and evidence helpers most tests need.
"""

import pytest

from repro import deployment as builder
from repro.core.board import ApprovalService, Verdict, verdict_payload
from repro.core.store import SEGMENT_PREFIX
from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.core.secrets import SecretKind, SecretSpec
from repro.crypto.signatures import KeyPair
from repro.tee.image import build_image


def segment_path(backing, key):
    """The one file under which ``backing`` holds ``key``'s segment."""
    [path] = [path for path in backing.list()
              if path.rpartition("@")[0] == SEGMENT_PREFIX + key]
    return path


class ByzantineApprovalService(ApprovalService):
    """A board member's approval service turned Byzantine.

    Same member, key and site as ``honest``, but every request is answered
    with ``forge(self, request)``: anything the member can produce — its
    honest verdict for another request (``ApprovalService.decide_local``),
    a statement signed with its own key (:meth:`sign`), a verdict copied
    from another member, or garbage.
    """

    def __init__(self, honest: ApprovalService, forge) -> None:
        vars(self).update(vars(honest))
        self.forge = forge

    def sign(self, request, approve, name=None) -> Verdict:
        """A verdict over ``request`` signed with this member's own key,
        claiming to come from ``name`` (default: this member)."""
        return Verdict(approve, self._keys.sign(verdict_payload(
            name or self.member_name, request, approve)))

    def decide_local(self, request):
        return self.forge(self, request)


class Deployment(builder.Deployment):
    """A fully wired PALAEMON deployment for tests."""

    def __init__(self, seed: bytes = b"deployment",
                 board_members: int = 3, board_threshold: int = 2,
                 veto_members=()):
        super().__init__(
            seed, board=[f"member-{index}" for index in range(board_members)],
            threshold=board_threshold, veto=veto_members)
        # The default client; on this object it shadows the ``client(name)``
        # factory, which stays reachable as ``builder.Deployment.client``.
        self.client = super().client("client-1")
        self.app_image = build_image("ml-engine", seed=b"v1")

    def stop_palaemon(self):
        self.simulator.run_process(self.palaemon.shutdown(),
                                   name="palaemon-stop")

    def make_policy(self, name="ml_policy", service_name="ml_app",
                    strict_mode=False, with_board=True, image=None,
                    injection_files=None, secrets=None, imports=(),
                    platforms=None):
        image = image or self.app_image
        if secrets is None:
            secrets = [SecretSpec(name="API_KEY", kind=SecretKind.RANDOM,
                                  size=32)]
        return SecurityPolicy(
            name=name,
            services=[ServiceSpec(
                name=service_name,
                image_name=image.name,
                command=["python", "/app.py"],
                environment={"MODE": "production"},
                mrenclaves=[image.mrenclave()],
                platforms=(platforms if platforms is not None else []),
                injection_files=dict(injection_files or {}),
                strict_mode=strict_mode,
            )],
            secrets=list(secrets),
            imports=list(imports),
            board=self.board if with_board else None,
        )

    def evidence_for(self, policy_name, service_name="ml_app", image=None,
                     tls_keys=None, platform=None):
        """Produce attestation evidence as the SCONE runtime would (§IV-A)."""
        from repro.core.attestation import AttestationEvidence
        from repro.crypto.primitives import sha256

        platform = platform or self.platform
        image = image or self.app_image
        enclave = platform.launch_instant(image)
        tls_keys = tls_keys or KeyPair.generate(
            self.rng.fork(b"tls:" + policy_name.encode()), bits=512)
        quote = platform.quoting_enclave.quote(
            enclave, sha256(tls_keys.public.to_bytes()))
        return AttestationEvidence(quote=quote, policy_name=policy_name,
                                   service_name=service_name,
                                   tls_public_key=tls_keys.public)


@pytest.fixture()
def deployment():
    return Deployment()
