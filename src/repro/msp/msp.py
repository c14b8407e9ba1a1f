"""The local MSP held by every node: verification and authorization.

Peers use their MSP for endorsement checks 3 and 4 (§II): "the signature is
valid" and "the submitter is authorized to transact on the channel".
"""

from __future__ import annotations

from repro.common.crypto import Signature
from repro.msp.ca import CertificateAuthority
from repro.msp.identity import Role


class MSP:
    """A node's view of one or more trust domains (CAs)."""

    def __init__(self, authorities: list[CertificateAuthority]) -> None:
        if not authorities:
            raise ValueError("an MSP needs at least one certificate authority")
        self._authorities = {ca.msp_id: ca for ca in authorities}
        # Channel name -> set of subjects authorized to write.
        self._channel_writers: dict[str, set[str]] = {}

    @property
    def revocation_epoch(self) -> int:
        """Trust-state version that VSCC verdicts key on (with this MSP
        and the policy; see :attr:`TransactionEnvelope.verdict
        <repro.common.types.TransactionEnvelope.verdict>`).

        The process-wide counter (one attribute read, no per-CA sum: this
        runs once per VSCC validate) moves at least as often as any of
        this MSP's own CAs, so a verdict can only be recomputed too
        eagerly, never kept too long.
        """
        return CertificateAuthority.global_revocation_epoch

    def authority(self, msp_id: str) -> CertificateAuthority | None:
        return self._authorities.get(msp_id)

    def verify_signature(self, signature: Signature, message: bytes,
                         msp_id: str) -> bool:
        """Verify ``signature`` under the named trust domain."""
        authority = self._authorities.get(msp_id)
        if authority is None:
            return False
        if authority.is_revoked(signature.signer):
            return False
        if authority.certificate_of(signature.signer) is None:
            return False
        return authority.crypto.verify(signature, message)

    def grant_channel_writer(self, channel: str, subject: str) -> None:
        """Authorize ``subject`` to submit transactions on ``channel``."""
        self._channel_writers.setdefault(channel, set()).add(subject)

    def is_channel_writer(self, channel: str, subject: str) -> bool:
        return subject in self._channel_writers.get(channel, set())

    def has_role(self, subject: str, msp_id: str, role: Role) -> bool:
        """True iff ``subject`` holds an unrevoked certificate with ``role``."""
        authority = self._authorities.get(msp_id)
        if authority is None or authority.is_revoked(subject):
            return False
        certificate = authority.certificate_of(subject)
        return certificate is not None and certificate.role is role
