"""The Fabric Certificate Authority.

Issues enrolment certificates to clients, peers, and orderers.  Certificates
are bound to the CA's crypto provider: a certificate is valid iff the CA
recognises the subject, the certificate has not been revoked, and its
attestation signature verifies under the CA's key.
"""

from __future__ import annotations

import dataclasses

from repro.common.crypto import CryptoProvider, Signature
from repro.common.errors import ConfigurationError
from repro.msp.identity import Identity, Role


@dataclasses.dataclass(frozen=True)
class EnrollmentCertificate:
    """An attestation by the CA that ``subject`` holds ``role``."""

    subject: str
    msp_id: str
    role: Role
    serial: int
    attestation: Signature

    def bytes_attested(self) -> bytes:
        return (f"{self.subject}|{self.msp_id}|{self.role.value}|"
                f"{self.serial}").encode("utf-8")


class CertificateAuthority:
    """Identity management for one MSP (organisation) trust domain."""

    CA_SUBJECT = "@ca"

    #: Process-wide revocation counter, bumped alongside every per-CA
    #: :attr:`revocation_epoch`.  VSCC verdicts key on this (one integer
    #: read per validate) rather than summing per-CA epochs; a revoke in
    #: *any* trust domain conservatively invalidates every verdict, which
    #: is always safe and costs nothing because revocations are rare
    #: (fault-injection scenarios only).
    global_revocation_epoch = 0

    def __init__(self, msp_id: str, root_secret: bytes | None = None) -> None:
        if not msp_id:
            raise ConfigurationError("MSP id must be non-empty")
        self.msp_id = msp_id
        secret = root_secret or f"root-secret:{msp_id}".encode("utf-8")
        self.crypto = CryptoProvider(secret)
        self._serial = 0
        self._issued: dict[str, EnrollmentCertificate] = {}
        self._revoked: set[str] = set()
        #: Bumped on every revocation; verdicts keyed on trust state
        #: (see :attr:`repro.msp.msp.MSP.revocation_epoch`) use it to
        #: invalidate without subscribing to individual CRL changes.
        self.revocation_epoch = 0

    def enroll(self, name: str, role: Role) -> Identity:
        """Issue an enrolment certificate and return the signed identity."""
        if name in self._issued:
            raise ConfigurationError(
                f"{name!r} is already enrolled with {self.msp_id}")
        self._serial += 1
        skeleton = EnrollmentCertificate(
            subject=name, msp_id=self.msp_id, role=role,
            serial=self._serial, attestation=None)  # type: ignore[arg-type]
        attestation = self.crypto.sign(self.CA_SUBJECT,
                                       skeleton.bytes_attested())
        certificate = dataclasses.replace(skeleton, attestation=attestation)
        self._issued[name] = certificate
        return Identity(name=name, msp_id=self.msp_id, role=role,
                        certificate=certificate, _crypto=self.crypto)

    def revoke(self, name: str) -> None:
        """Add ``name`` to the certificate revocation list."""
        if name not in self._issued:
            raise ConfigurationError(f"{name!r} was never enrolled")
        self._revoked.add(name)
        self.revocation_epoch += 1
        CertificateAuthority.global_revocation_epoch += 1

    def is_revoked(self, name: str) -> bool:
        return name in self._revoked

    def certificate_of(self, name: str) -> EnrollmentCertificate | None:
        return self._issued.get(name)

    def validate_certificate(self, certificate: EnrollmentCertificate) -> bool:
        """True iff the certificate was issued here and is not revoked."""
        if certificate.msp_id != self.msp_id:
            return False
        if certificate.subject in self._revoked:
            return False
        issued = self._issued.get(certificate.subject)
        if issued is None or issued.serial != certificate.serial:
            return False
        return self.crypto.verify(certificate.attestation,
                                  certificate.bytes_attested())
