"""System chaincodes: ESCC and VSCC.

ESCC (endorsement system chaincode) runs in the peer process during the
execute phase and produces the endorsement signature over the proposal
response.  VSCC (validation system chaincode) runs during the validate phase
and checks that a transaction's endorsements satisfy the channel's
endorsement policy.  (The MVCC check, which Fabric performs in the committer
rather than in VSCC, lives in :mod:`repro.peer.validator`.)
"""

from __future__ import annotations

from repro.chaincode.policy import EndorsementPolicy
from repro.common.types import (
    Endorsement,
    TransactionEnvelope,
    ValidationCode,
)
from repro.msp.identity import Identity
from repro.msp.msp import MSP


class ESCC:
    """Endorsement system chaincode: signs proposal responses."""

    def __init__(self, identity: Identity) -> None:
        self._identity = identity

    def endorse(self, response_bytes: bytes) -> Endorsement:
        """Sign a proposal response's bytes as this peer."""
        return Endorsement(endorser=self._identity.name,
                           msp_id=self._identity.msp_id,
                           signature=self._identity.sign(response_bytes))


class VSCC:
    """Validation system chaincode: endorsement-policy validation.

    Verifies each endorsement signature over the envelope's response bytes
    and evaluates the policy against the set of valid endorsers.  The CPU
    cost of this step — which grows with the number of endorsements and is
    what makes AND policies validate slower than OR — is charged by the
    validator process via the cost model; this class is the correctness
    logic.
    """

    def __init__(self, msp: MSP) -> None:
        self._msp = msp

    def validate(self, envelope: TransactionEnvelope,
                 policy: EndorsementPolicy) -> ValidationCode:
        """Policy verdict for ``envelope``, memoised on the envelope.

        The verdict is a pure function of (envelope, policy, trust state):
        every committing peer re-validates the same envelope against the
        same channel policy under the same shared MSP, so the computation
        runs once and the other peers read it back from
        :attr:`~repro.common.types.TransactionEnvelope.verdict`, which
        keys it on the MSP, the policy and the revocation epoch.  Only
        the Python-side verdict is shared — each peer still charges its
        own VSCC CPU cost in the validator, so schedules are untouched.
        """
        msp = self._msp
        epoch = msp.revocation_epoch
        memo = envelope.verdict
        if (memo is not None and memo[0] is msp and memo[1] is policy
                and memo[2] == epoch):
            return memo[3]
        verdict = self._validate_uncached(envelope, policy)
        envelope.verdict = (msp, policy, epoch, verdict)
        return verdict

    def _validate_uncached(self, envelope: TransactionEnvelope,
                           policy: EndorsementPolicy) -> ValidationCode:
        if not envelope.endorsements:
            return ValidationCode.ENDORSEMENT_POLICY_FAILURE
        valid_endorsers: set[str] = set()
        for endorsement in envelope.endorsements:
            if endorsement.signature.signer != endorsement.endorser:
                return ValidationCode.BAD_SIGNATURE
            if not self._msp.verify_signature(
                    endorsement.signature, envelope.response_bytes,
                    endorsement.msp_id):
                return ValidationCode.BAD_SIGNATURE
            valid_endorsers.add(endorsement.endorser)
        if not policy.evaluate(valid_endorsers):
            return ValidationCode.ENDORSEMENT_POLICY_FAILURE
        return ValidationCode.VALID
