"""Algorithm 3: the committee-based approver.

A committee adaptation of MMR's synchronized binary-value broadcast.
Three phases, four committees (Figure 1): an *init* committee broadcasts
inputs; a *per-value echo* committee boosts any value received from B+1
distinct init members (one committee per value, so each correct member
broadcasts at most once -- process replaceability); an *ok* committee,
upon W echoes of some value, broadcasts an ok carrying those W signed
echoes as justification.  Everyone returns the value set of the first W
valid ok messages.

Under Assumption 1 (correct processes invoke with at most two distinct
values) the approver satisfies, whp: Validity, Graded Agreement and
Termination (Definition 6.1).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable

from repro.core.committees import membership_checker, sample
from repro.core.messages import EchoMsg, InitMsg, OkMsg, echo_signing_bytes
from repro.core.params import ProtocolParams
from repro.sim.mailbox import Mailbox
from repro.sim.process import ProcessContext, Protocol, Wait

__all__ = ["approve"]

_INIT_ROLE = "init"
_OK_ROLE = "ok"


def approve(
    ctx: ProcessContext,
    instance: Hashable,
    value: object,
    params: ProtocolParams | None = None,
    justify: bool = True,
) -> Protocol:
    """Run one approver instance with input ``value``; returns a value set.

    ``value`` may be any canonically-encodable object; the BA protocol
    uses 0, 1 and ``None`` (the paper's ⊥).

    ``justify=False`` is an ABLATION ONLY: ok messages omit the W signed
    echoes the paper attaches as proof of validity.  That erases the λ²
    word term -- and breaks the Validity property, because a Byzantine
    ok-committee member can then inject an arbitrary value into return
    sets (experiment X2 measures exactly this trade).  Real deployments
    must keep the default.
    """
    params = params or ctx.params
    committee_quorum = params.committee_quorum
    byzantine_bound = params.committee_byzantine_bound
    pki = ctx.pki
    # Hoisted validators (same checks/counters as committee_val); the echo
    # committees are per-value, so their role labels and checkers are
    # cached on demand -- one role tuple per value, shared by every
    # record that names it.
    valid_init_member = membership_checker(pki, instance, _INIT_ROLE, params)
    valid_ok_member = membership_checker(pki, instance, _OK_ROLE, params)
    echo_committees: dict = {}  # value -> (role, membership checker)
    # The instance's shelf of the PKI's validation memo: one verdict per
    # send, replayed by every later receiver (PKI.send_verdict).
    memo = pki.validation_memo(instance) if pki.verify_cache_enabled else None

    def echo_committee(candidate: object) -> tuple:
        committee = echo_committees.get(candidate)
        if committee is None:
            role = ("echo", candidate)
            committee = echo_committees[candidate] = (
                role,
                membership_checker(pki, instance, role, params),
            )
        return committee

    in_init, init_proof = sample(ctx, instance, _INIT_ROLE, params)
    if in_init:
        ctx.broadcast(InitMsg(instance, value=value, membership=init_proof))
    in_ok, ok_proof = sample(ctx, instance, _OK_ROLE, params)

    # Reactive state.  Value-keyed dicts; Assumption 1 bounds the values
    # correct processes introduce, Byzantine extras just waste their
    # committee luck, and values are canonical, so no `True` meets a `1`.
    # The kernel authenticates senders, so each is a pid in [0, n) and a
    # tally of distinct senders is a seen-bitmap (one byte per process)
    # plus a count -- a set costs ~50 B per member, so the
    # bitmap is the smaller while n stays below ~40 λ (DESIGN.md §10).
    n = ctx.n
    # value -> [seen, count] over validated init members; init_seen is the
    # union across values, the init committee's observed size.
    init_tallies: dict[object, list] = {}
    init_seen = bytearray(n)
    init_count = 0
    echoed: set[object] = set()
    # value -> (seen, entries): the delivered (sender, EchoMsg) stream
    # entries of validated echoes -- the tuple every receiver of the
    # broadcast shares, so a record costs one reference.
    echo_records: dict[object, tuple[bytearray, list]] = {}
    ok_values: list[object] = []
    ok_seen = bytearray(n)
    # True while this process may still send its ok: in the ok committee
    # and not sent yet.
    ok_pending = in_ok
    cursor = 0

    def send_echo(candidate: object) -> None:
        """'Upon receiving init,v from B+1 distinct processes' (line 3)."""
        echoed.add(candidate)
        in_echo, echo_proof = sample(
            ctx, instance, echo_committee(candidate)[0], params
        )
        if in_echo:
            signature = ctx.sign(echo_signing_bytes(instance, candidate))
            ctx.broadcast(
                EchoMsg(
                    instance,
                    value=candidate,
                    membership=echo_proof,
                    signature=signature,
                )
            )

    def send_ok(candidate: object, entries: list) -> None:
        """'Upon receiving echo,v from W distinct processes' (line 6)."""
        if justify:
            justification = tuple(
                (echo_sender, echo.membership, echo.signature)
                for echo_sender, echo in sorted(entries, key=itemgetter(0))[
                    :committee_quorum
                ]
            )
        else:
            justification = ()
        ctx.broadcast(
            OkMsg(
                instance,
                value=candidate,
                membership=ok_proof,
                justification=justification,
            )
        )

    def valid_init(sender: int, msg: InitMsg) -> bool:
        return valid_init_member(sender, msg.membership)

    def valid_echo(sender: int, msg: EchoMsg) -> bool:
        candidate = msg.value
        if not echo_committee(candidate)[1](sender, msg.membership):
            return False
        return pki.signature_verify(
            sender, echo_signing_bytes(instance, candidate), msg.signature
        )

    def valid_ok(sender: int, msg: OkMsg) -> bool:
        """Validate an ok message: committee membership + W signed echoes."""
        if not valid_ok_member(sender, msg.membership):
            return False
        if not justify:
            # Ablation mode: membership alone admits the ok (unsound!).
            return True
        if len(msg.justification) < committee_quorum:
            return False
        seen: set[int] = set()
        signing_bytes = echo_signing_bytes(instance, msg.value)
        check_member = echo_committee(msg.value)[1]
        signature_verify = pki.signature_verify
        for echo_sender, membership, signature in msg.justification:
            if echo_sender in seen:
                return False
            if not check_member(echo_sender, membership):
                return False
            if not signature_verify(echo_sender, signing_bytes, signature):
                return False
            seen.add(echo_sender)
        return len(seen) >= committee_quorum

    stream: list | None = None

    def step(mailbox: Mailbox):
        nonlocal cursor, stream, init_count, ok_pending
        s = stream
        if s is None:
            # The instance's buffer list is identity-stable once created
            # (append-only); cache it and skip the per-evaluation lookup.
            s = mailbox.stream(instance)
            if type(s) is list:
                stream = s
        while cursor < len(s):
            entry = s[cursor]
            sender, msg = entry
            cursor += 1
            # Each branch passes its receiver-local gates, then asks for
            # the send's verdict.
            if isinstance(msg, InitMsg):
                if not pki.send_verdict(memo, entry, valid_init):
                    continue
                candidate = msg.value
                tally = init_tallies.get(candidate)
                if tally is None:
                    tally = init_tallies[candidate] = [bytearray(n), 0]
                seen = tally[0]
                if seen[sender]:
                    continue
                seen[sender] = 1
                count = tally[1] = tally[1] + 1
                if not init_seen[sender]:
                    init_seen[sender] = 1
                    init_count += 1
                if count > byzantine_bound and candidate not in echoed:
                    send_echo(candidate)
            elif isinstance(msg, EchoMsg):
                candidate = msg.value
                record = echo_records.get(candidate)
                if record is None:
                    record = echo_records[candidate] = (bytearray(n), [])
                seen, entries = record
                if seen[sender]:
                    continue
                if not pki.send_verdict(memo, entry, valid_echo):
                    continue
                seen[sender] = 1
                entries.append(entry)
                if ok_pending and len(entries) >= committee_quorum:
                    ok_pending = False
                    send_ok(candidate, entries)
            elif isinstance(msg, OkMsg):
                if ok_seen[sender]:
                    continue
                if not pki.send_verdict(memo, entry, valid_ok):
                    continue
                ok_seen[sender] = 1
                ok_values.append(msg.value)
                if len(ok_values) >= committee_quorum:
                    return frozenset(ok_values)
        # The wake-up floor: a delivery adds at most one to one tally, so
        # nothing can happen before the nearest trigger -- W oks, B+1
        # inits of a value not echoed yet (an unseen value has 0), or,
        # while the ok is pending, W echoes of one value.
        need = committee_quorum - len(ok_values)
        inits = max(
            (tally[1] for candidate, tally in init_tallies.items()
             if candidate not in echoed),
            default=0,
        )
        need = min(need, byzantine_bound + 1 - inits)
        if ok_pending:
            echoes = max(
                (len(entries) for _, entries in echo_records.values()), default=0
            )
            need = min(need, committee_quorum - echoes)
        wait.need = need
        return None

    wait = Wait(step, description=f"approve{instance}", instances={instance})
    with ctx.span("approve", instance):
        result = yield wait
    # `step` reads `wait` through a closure cell: a cycle that would wait
    # for the cycle collector.  Emptying the cell frees the instance's
    # state by refcount, as soon as the kernel lets go of the wait.
    del wait
    ctx.retire(instance)  # `step` was the instance's only reader
    ctx.annotate("committee", instance=instance, role=_INIT_ROLE, size=init_count)
    for candidate, (_, entries) in echo_records.items():
        ctx.annotate(
            "committee",
            instance=instance,
            role=echo_committee(candidate)[0],
            size=len(entries),
        )
    ctx.annotate(
        "committee", instance=instance, role=_OK_ROLE, size=len(ok_values)
    )
    ctx.annotate(
        "approve",
        instance=instance,
        grade=len(result),
        values=sorted(repr(value) for value in result),
        input=repr(value),
        in_init=in_init,
        in_ok=in_ok,
    )
    return result
