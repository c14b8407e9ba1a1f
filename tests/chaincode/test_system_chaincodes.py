"""Direct unit tests for ESCC and VSCC."""

from repro.chaincode.policy import And, Or, Principal
from repro.chaincode.system import ESCC, VSCC
from repro.common.types import (
    Endorsement,
    KVRead,
    KVWrite,
    ProposalResponse,
    TransactionEnvelope,
    TxReadWriteSet,
    ValidationCode,
)
from repro.msp import MSP, CertificateAuthority, Role


def setup():
    ca = CertificateAuthority("Org1")
    msp = MSP([ca])
    peers = {name: ca.enroll(name, Role.PEER) for name in ["p0", "p1"]}
    return ca, msp, peers


def make_response(tx_id="t1"):
    rwset = TxReadWriteSet(reads=(KVRead("k", None),),
                           writes=(KVWrite("k", b"v"),))
    return ProposalResponse(tx_id=tx_id, endorser="p0", status=200,
                            payload=b"ok", rwset=rwset, endorsement=None)


def make_envelope(endorsements, response):
    return TransactionEnvelope(
        tx_id=response.tx_id, channel="ch", chaincode="cc", creator="c",
        rwset=response.rwset, endorsements=tuple(endorsements),
        response_bytes=response.response_bytes())


def test_escc_signature_binds_response_bytes():
    ca, msp, peers = setup()
    response = make_response()
    endorsement = ESCC(peers["p0"]).endorse(response.response_bytes())
    assert endorsement.endorser == "p0"
    assert msp.verify_signature(endorsement.signature,
                                response.response_bytes(), "Org1")
    assert not msp.verify_signature(endorsement.signature, b"other",
                                    "Org1")


def test_vscc_valid_single_endorsement_or_policy():
    ca, msp, peers = setup()
    response = make_response()
    endorsement = ESCC(peers["p0"]).endorse(response.response_bytes())
    envelope = make_envelope([endorsement], response)
    vscc = VSCC(msp)
    policy = Or([Principal("p0"), Principal("p1")])
    assert vscc.validate(envelope, policy) is ValidationCode.VALID


def test_vscc_empty_endorsements_policy_failure():
    ca, msp, peers = setup()
    response = make_response()
    envelope = make_envelope([], response)
    assert VSCC(msp).validate(envelope, Principal("p0")) is (
        ValidationCode.ENDORSEMENT_POLICY_FAILURE)


def test_vscc_unsatisfied_and_policy():
    ca, msp, peers = setup()
    response = make_response()
    endorsement = ESCC(peers["p0"]).endorse(response.response_bytes())
    envelope = make_envelope([endorsement], response)
    policy = And([Principal("p0"), Principal("p1")])
    assert VSCC(msp).validate(envelope, policy) is (
        ValidationCode.ENDORSEMENT_POLICY_FAILURE)


def test_vscc_signer_endorser_mismatch_is_bad_signature():
    ca, msp, peers = setup()
    response = make_response()
    endorsement = ESCC(peers["p0"]).endorse(response.response_bytes())
    forged = Endorsement(endorser="p1", msp_id="Org1",
                         signature=endorsement.signature)
    envelope = make_envelope([forged], response)
    assert VSCC(msp).validate(envelope, Principal("p1")) is (
        ValidationCode.BAD_SIGNATURE)


def test_vscc_revoked_endorser_is_bad_signature():
    ca, msp, peers = setup()
    response = make_response()
    endorsement = ESCC(peers["p0"]).endorse(response.response_bytes())
    envelope = make_envelope([endorsement], response)
    ca.revoke("p0")
    assert VSCC(msp).validate(envelope, Principal("p0")) is (
        ValidationCode.BAD_SIGNATURE)


def test_vscc_unknown_msp_domain_is_bad_signature():
    ca, msp, peers = setup()
    response = make_response()
    endorsement = ESCC(peers["p0"]).endorse(response.response_bytes())
    alien = Endorsement(endorser="p0", msp_id="OrgX",
                        signature=endorsement.signature)
    envelope = make_envelope([alien], response)
    assert VSCC(msp).validate(envelope, Principal("p0")) is (
        ValidationCode.BAD_SIGNATURE)


def test_vscc_verdict_turns_bad_after_revocation():
    ca, msp, peers = setup()
    response = make_response()
    endorsement = ESCC(peers["p0"]).endorse(response.response_bytes())
    envelope = make_envelope([endorsement], response)
    policy = Principal("p0")
    # Two peers' VSCCs over one MSP: the second reuses the verdict.
    assert VSCC(msp).validate(envelope, policy) is ValidationCode.VALID
    assert VSCC(msp).validate(envelope, policy) is ValidationCode.VALID
    ca.revoke("p0")
    assert VSCC(msp).validate(envelope, policy) is (
        ValidationCode.BAD_SIGNATURE)


def test_vscc_verdict_not_inherited_by_another_msp():
    ca, msp, peers = setup()
    response = make_response()
    endorsement = ESCC(peers["p0"]).endorse(response.response_bytes())
    envelope = make_envelope([endorsement], response)
    policy = Principal("p0")
    assert VSCC(msp).validate(envelope, policy) is ValidationCode.VALID
    # An MSP without the endorser's CA cannot verify the signature.
    stranger = MSP([CertificateAuthority("Org2")])
    assert VSCC(stranger).validate(envelope, policy) is (
        ValidationCode.BAD_SIGNATURE)
    assert VSCC(msp).validate(envelope, policy) is ValidationCode.VALID


def test_vscc_verdict_is_per_policy():
    ca, msp, peers = setup()
    response = make_response()
    endorsement = ESCC(peers["p0"]).endorse(response.response_bytes())
    envelope = make_envelope([endorsement], response)
    vscc = VSCC(msp)
    satisfied = Principal("p0")
    assert vscc.validate(envelope, satisfied) is ValidationCode.VALID
    assert vscc.validate(envelope, Principal("p1")) is (
        ValidationCode.ENDORSEMENT_POLICY_FAILURE)
    assert vscc.validate(envelope, And([Principal("p0"),
                                        Principal("p1")])) is (
        ValidationCode.ENDORSEMENT_POLICY_FAILURE)
    assert vscc.validate(envelope, satisfied) is ValidationCode.VALID
