"""Tests for the symmetric-PKI crypto provider."""

import dataclasses
import hmac

import pytest

from repro.common.crypto import CryptoProvider, Signature, sha256_hex


def test_sign_verify_roundtrip():
    crypto = CryptoProvider(b"root")
    signature = crypto.sign("peer0", b"message")
    assert crypto.verify(signature, b"message")


def test_verify_rejects_tampered_message():
    crypto = CryptoProvider(b"root")
    signature = crypto.sign("peer0", b"message")
    assert not crypto.verify(signature, b"tampered")


def test_verify_rejects_forged_mac():
    crypto = CryptoProvider(b"root")
    signature = crypto.sign("peer0", b"message")
    forged = Signature(signer=signature.signer, digest=signature.digest,
                       mac="0" * 64)
    assert not crypto.verify(forged, b"message")


def test_verify_rejects_wrong_signer():
    crypto = CryptoProvider(b"root")
    signature = crypto.sign("peer0", b"message")
    stolen = Signature(signer="peer1", digest=signature.digest,
                       mac=signature.mac)
    assert not crypto.verify(stolen, b"message")


def test_different_roots_do_not_cross_verify():
    first = CryptoProvider(b"root-a")
    second = CryptoProvider(b"root-b")
    signature = first.sign("peer0", b"message")
    assert not second.verify(signature, b"message")


def test_same_root_cross_verifies():
    # Two providers from the same secret model two nodes in one trust domain.
    signer = CryptoProvider(b"shared")
    verifier = CryptoProvider(b"shared")
    signature = signer.sign("peer0", b"message")
    assert verifier.verify(signature, b"message")


def test_signing_is_deterministic():
    crypto = CryptoProvider(b"root")
    assert crypto.sign("p", b"m") == crypto.sign("p", b"m")


def test_empty_root_secret_rejected():
    with pytest.raises(ValueError):
        CryptoProvider(b"")


def test_signature_requires_signer():
    with pytest.raises(ValueError):
        Signature(signer="", digest="d", mac="m")


def test_sha256_hex_known_value():
    assert sha256_hex(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


@pytest.mark.parametrize("subject", [
    "peer0", "client.org1.example.com", "s" * 200, "pèer-ørg-节点"])
def test_mac_equals_the_stdlib_hmac(subject):
    # sign() finishes a cached key schedule; hmac.digest is the reference.
    crypto = CryptoProvider(b"root")
    for message in (b"", b"message", bytes(range(256)) * 2):
        first = crypto.sign(subject, message)
        again = crypto.sign(subject, message)  # schedule now cached
        expected = hmac.digest(crypto.derive_key(subject),
                               sha256_hex(message).encode(), "sha256").hex()
        assert first.mac == again.mac == expected
        assert crypto.verify(again, message)
        assert not crypto.verify(again, message + b"x")
        flipped = format(int(again.mac[-1], 16) ^ 1, "x")
        forged = dataclasses.replace(again, mac=again.mac[:-1] + flipped)
        assert not crypto.verify(forged, message)
