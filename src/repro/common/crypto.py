"""Deterministic, verifiable signatures without external dependencies.

The real Fabric uses ECDSA X.509 certificates.  Offline and in simulation we
substitute a *symmetric PKI*: the certificate authority derives each
identity's signing key from its root secret (``key = HMAC(root, subject)``),
so any node enrolled with the CA can re-derive the key and verify signatures.
This preserves the code paths the paper measures — every endorsement is
signed and every signature is verified during VSCC — and tampering with
signed bytes is actually detected.  The CPU cost of real ECDSA is modelled
separately by the cost model; these functions are for correctness, not
timing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import typing


def sha256_hex(data: bytes) -> str:
    """Hex digest of SHA-256 over ``data``."""
    return hashlib.sha256(data).hexdigest()


@dataclasses.dataclass(frozen=True)
class Signature:
    """A signature over a message digest by a named identity."""

    signer: str
    digest: str
    mac: str

    def __post_init__(self) -> None:
        if not self.signer:
            raise ValueError("signature must name its signer")


class CryptoProvider:
    """Derives per-identity keys from a root secret; signs and verifies.

    One provider instance corresponds to one certificate authority's trust
    domain.  All nodes enrolled with that CA share the provider (or an equal
    copy constructed from the same root secret).

    Each subject's HMAC-SHA256 key schedule (RFC 2104: the SHA-256 states
    after absorbing its key XOR ipad and XOR opad) is built once and cached,
    because a run computes tens of thousands of MACs under a few dozen keys
    and a one-shot ``hmac.digest`` rebuilds both states on every call.  A
    MAC finishes copies of the two states, at about a third of the cost,
    and is byte-identical to ``hmac.digest``'s.
    """

    #: Cap on memoised verification verdicts.  Verification is pure, so a
    #: full cache is simply cleared; correctness never depends on a hit.
    VERIFY_CACHE_MAX = 65536

    def __init__(self, root_secret: bytes) -> None:
        if not root_secret:
            raise ValueError("root secret must be non-empty")
        self._root_secret = root_secret
        self._schedules: dict[str, tuple[typing.Any, typing.Any]] = {}
        self._verify_cache: dict[tuple[Signature, bytes], bool] = {}

    def derive_key(self, subject: str) -> bytes:
        """The signing key for ``subject`` (deterministic)."""
        return hmac.digest(self._root_secret, subject.encode("utf-8"),
                           "sha256")

    def _mac(self, subject: str, digest: str) -> str:
        """HMAC-SHA256 of ``digest`` under ``subject``'s key, in hex."""
        schedule = self._schedules.get(subject)
        if schedule is None:
            # The 32-byte key is shorter than SHA-256's 64-byte block, so
            # RFC 2104 pads it with zeros rather than hashing it first.
            block = self.derive_key(subject).ljust(64, b"\0")
            schedule = (hashlib.sha256(bytes(b ^ 0x36 for b in block)),
                        hashlib.sha256(bytes(b ^ 0x5C for b in block)))
            self._schedules[subject] = schedule
        inner = schedule[0].copy()
        inner.update(digest.encode("utf-8"))
        outer = schedule[1].copy()
        outer.update(inner.digest())
        return outer.hexdigest()

    def sign(self, subject: str, message: bytes) -> Signature:
        """Sign ``message`` as ``subject``."""
        digest = sha256_hex(message)
        return Signature(signer=subject, digest=digest,
                         mac=self._mac(subject, digest))

    def verify(self, signature: Signature, message: bytes) -> bool:
        """True iff ``signature`` is a valid signature over ``message``.

        Verification is pure (same inputs, same verdict) and, during the
        validate phase, every one of the network's peers verifies the very
        same endorsement signatures — so verdicts are memoised per
        ``(signature, message)`` pair.  A dict probe costs a short-string
        hash; a miss costs a SHA-256 pass and a MAC.
        """
        cache = self._verify_cache
        key = (signature, message)
        cached = cache.get(key)
        if cached is not None:
            return cached
        if sha256_hex(message) != signature.digest:
            result = False
        else:
            result = hmac.compare_digest(
                self._mac(signature.signer, signature.digest), signature.mac)
        if len(cache) >= self.VERIFY_CACHE_MAX:
            cache.clear()
        cache[key] = result
        return result
