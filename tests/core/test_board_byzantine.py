"""Property test: Byzantine board members move only their own entry.

Random boards (size, threshold, veto holders, honest decisions) run one
round in which a random subset of members is Byzantine. A Byzantine
member answers with a garbage signature, another member's valid verdict,
its own verdict for a different request, a verdict naming another member,
or a validly signed vote of its choosing. Only that last one is a vote;
everything else counts as ``invalid``. So the round passes iff at least
``threshold`` members cast an approving vote and no veto holder cast a
rejecting one, and every honest member's entry is what its decision makes
it, whatever the Byzantine members send.
"""

from dataclasses import replace
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.core.board import (
    AccessRequest,
    ApprovalService,
    BoardEvaluator,
    Verdict,
)
from repro.core.policy import BoardSpec, PolicyBoardMember
from repro.crypto.certificates import self_signed_certificate
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.errors import ApprovalDeniedError
from repro.sim.core import Simulator

from tests.core.conftest import ByzantineApprovalService

MAX_MEMBERS = 5

#: Byzantine behaviour -> forge(honest service of the member it names or
#: copies, that member's name, the decision it claims).
FORGERS = {
    "garbage": lambda _other, _name, approve: (
        lambda _service, _request: Verdict(approve, b"\x00" * 64)),
    "copy": lambda other, _name, _approve: (
        lambda _service, request: other.decide_local(request)),
    "replay": lambda _other, _name, _approve: (
        lambda service, request: ApprovalService.decide_local(
            service, replace(request, nonce=request.nonce + b"old"))),
    "impersonate": lambda _other, name, approve: (
        lambda service, request: service.sign(request, approve, name=name)),
    "vote": lambda _other, _name, approve: (
        lambda service, request: service.sign(request, approve)),
}


@lru_cache(maxsize=None)
def board_member(index):
    """Member ``m<index>``: its key and board entry, made once."""
    name = f"m{index}"
    keys = KeyPair.generate(
        DeterministicRandom(b"byzantine-board").fork(name.encode()), bits=512)
    return keys, PolicyBoardMember(
        name=name, certificate=self_signed_certificate(name, keys),
        approval_endpoint=f"ep-{name}")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_byzantine_members_move_only_their_own_entry(data):
    size = data.draw(st.integers(1, MAX_MEMBERS), label="size")
    threshold = data.draw(st.integers(1, size), label="threshold")
    simulator = Simulator()
    members, honest, decisions = [], {}, {}
    for index in range(size):
        keys, member = board_member(index)
        approves = decisions[member.name] = data.draw(
            st.booleans(), label=f"{member.name} approves")
        honest[member.name] = ApprovalService(
            simulator, member.name, keys,
            decision_rule=lambda _request, approves=approves: approves)
        members.append(replace(member, veto=data.draw(
            st.booleans(), label=f"{member.name} holds a veto")))
    board = BoardSpec(members=tuple(members), threshold=threshold)

    behaviours = sorted(FORGERS) if size > 1 else ["garbage", "replay",
                                                   "vote"]
    services = {member.approval_endpoint: honest[member.name]
                for member in members}
    votes = {}  # member name -> the vote it validly cast
    expected = {}  # member name -> the outcome entry it must land in
    for index, member in enumerate(members):
        behaviour = data.draw(st.sampled_from([None] + behaviours),
                              label=f"{member.name} behaviour")
        claimed = data.draw(st.booleans(), label=f"{member.name} claims")
        if behaviour is None:
            votes[member.name] = decisions[member.name]
        elif behaviour == "vote":
            votes[member.name] = claimed
        else:
            expected[member.name] = "invalid"
        other = members[(index + data.draw(
            st.integers(1, max(1, size - 1)), label="other")) % size]
        if behaviour is not None:
            services[member.approval_endpoint] = ByzantineApprovalService(
                honest[member.name],
                FORGERS[behaviour](honest[other.name], other.name, claimed))
    for name, vote in votes.items():
        expected[name] = "approvals" if vote else "rejections"

    evaluator = BoardEvaluator(simulator, services)
    request = AccessRequest(
        policy_name="p", operation=data.draw(st.sampled_from(
            ["create", "read", "update", "delete"]), label="operation"),
        requester_fingerprint=b"\x01" * 16, nonce=b"\x02" * 16)
    outcome = evaluator.evaluate_local(board, request)
    entries = {name: entry
               for entry in ("approvals", "rejections", "invalid",
                             "unreachable")
               for name in getattr(outcome, entry)}
    assert entries == expected
    assert sum(map(len, (outcome.approvals, outcome.rejections,
                         outcome.invalid, outcome.unreachable))) == size

    should_pass = (sum(votes.values()) >= threshold
                   and not any(member.veto and votes.get(member.name) is False
                               for member in members))
    try:
        evaluator.approve(board, request)
        passed = True
    except ApprovalDeniedError:
        passed = False
    assert passed == should_pass
