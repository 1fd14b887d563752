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
from repro.crypto.pki import VALIDATION_MEMO_MAX_ENTRIES
from repro.sim.mailbox import Mailbox
from repro.sim.process import ProcessContext, Protocol, Wait

__all__ = ["approve"]

_INIT_ROLE = "init"
_OK_ROLE = "ok"


def _echo_role(value: object) -> tuple:
    """The value-specific echo committee's role label."""
    return ("echo", value)


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
    # committees are per-value, so their checkers are cached on demand.
    valid_init_member = membership_checker(pki, instance, _INIT_ROLE, params)
    valid_ok_member = membership_checker(pki, instance, _OK_ROLE, params)
    echo_checkers: dict = {}
    # The ok-justification verdicts' shelf of the PKI's validation memo.
    memo = pki.validation_memo(instance) if pki.verify_cache_enabled else None

    def echo_member_checker(candidate: object):
        try:
            checker = echo_checkers.get(candidate)
        except TypeError:  # unhashable Byzantine value: uncached checker
            return membership_checker(pki, instance, _echo_role(candidate), params)
        if checker is None:
            checker = membership_checker(pki, instance, _echo_role(candidate), params)
            echo_checkers[candidate] = checker
        return checker

    in_init, init_proof = sample(ctx, instance, _INIT_ROLE, params)
    if in_init:
        ctx.broadcast(InitMsg(instance, value=value, membership=init_proof))
    in_ok, ok_proof = sample(ctx, instance, _OK_ROLE, params)

    # Reactive state.  Value-keyed dicts; Assumption 1 bounds the values
    # correct processes introduce, Byzantine extras just waste their
    # committee luck.  The kernel authenticates senders, so each is a pid
    # in [0, n) and a tally of distinct senders is a seen-bitmap (one byte
    # per process) plus a count -- a set costs ~50 B per member, so the
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
    state = {"sent_ok": False}
    cursor = 0

    def maybe_echo(candidate: object, count: int) -> None:
        """'Upon receiving init,v from B+1 distinct processes' (line 3)."""
        if candidate in echoed or count <= byzantine_bound:
            return
        echoed.add(candidate)
        in_echo, echo_proof = sample(ctx, instance, _echo_role(candidate), params)
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

    def maybe_ok(candidate: object, entries: list) -> None:
        """'Upon receiving echo,v from W distinct processes' (line 6)."""
        if state["sent_ok"] or not in_ok or len(entries) < committee_quorum:
            return
        state["sent_ok"] = True
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

    def justification_valid(msg: OkMsg) -> bool:
        """The pure part of ok validation: W distinct, signed, member echoes.

        Depends only on ``(instance, msg.value, msg.justification, params)``
        -- never on the receiver -- so its verdict (and the exact number of
        VRF/signature verifications it performs, all cache hits after the
        first receiver) can be shared across receivers via the PKI memo.
        """
        if len(msg.justification) < committee_quorum:
            return False
        seen: set[int] = set()
        signing_bytes = echo_signing_bytes(instance, msg.value)
        check_member = echo_member_checker(msg.value)
        signature_verify = pki.signature_verify
        for entry in msg.justification:
            if not isinstance(entry, tuple) or len(entry) != 3:
                return False
            echo_sender, membership, signature = entry
            if type(echo_sender) is not int or echo_sender in seen:
                return False
            if not check_member(echo_sender, membership):
                return False
            if not signature_verify(echo_sender, signing_bytes, signature):
                return False
            seen.add(echo_sender)
        return len(seen) >= committee_quorum

    def valid_ok(sender: int, msg: OkMsg) -> bool:
        """Validate an ok message: committee membership + W signed echoes."""
        if not valid_ok_member(sender, msg.membership):
            return False
        if not justify:
            # Ablation mode: membership alone admits the ok (unsound!).
            return True
        if memo is None or not pki.verify_cache_enabled:
            return justification_valid(msg)
        # Broadcast delivers the *same* message object to every receiver,
        # so the justification tuple is keyed by identity -- no O(W)
        # structural hash per lookup.  The entry pins the tuple (keeping
        # its id live for as long as the memo holds it); the instance's
        # shelf and the value scope the verdict, and the identity pin
        # already ties the entry to this run's objects, so params stays
        # out of the key (its Python-level __hash__ would run on every
        # lookup).
        justification = msg.justification
        try:
            key = ("ok-justification", msg.value, id(justification))
            cached = memo.get(key)
        except TypeError:  # unhashable Byzantine content: validate directly
            return justification_valid(msg)
        if cached is not None and cached[3] is justification:
            verdict, vrf_calls, sig_calls, _ = cached
            # A re-execution would hit the per-call verify caches on every
            # call, so crediting them all as hits reproduces its counters.
            pki.replay_cached(vrf_calls, sig_calls)
            return verdict
        vrf_before = pki.vrf_verifications
        sig_before = pki.sig_verifications
        verdict = justification_valid(msg)
        if len(memo) >= VALIDATION_MEMO_MAX_ENTRIES:
            memo.clear()
        memo[key] = (
            verdict,
            pki.vrf_verifications - vrf_before,
            pki.sig_verifications - sig_before,
            justification,
        )
        return verdict

    stream: list | None = None

    def step(mailbox: Mailbox):
        nonlocal cursor, stream, init_count
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
            if isinstance(msg, InitMsg):
                if not valid_init_member(sender, msg.membership):
                    continue
                candidate = msg.value
                try:
                    tally = init_tallies.get(candidate)
                except TypeError:  # unhashable Byzantine value: discard
                    continue
                if tally is None:
                    tally = init_tallies[candidate] = [bytearray(n), 0]
                seen = tally[0]
                if seen[sender]:
                    continue
                seen[sender] = 1
                tally[1] += 1
                if not init_seen[sender]:
                    init_seen[sender] = 1
                    init_count += 1
                maybe_echo(candidate, tally[1])
            elif isinstance(msg, EchoMsg):
                candidate = msg.value
                try:
                    record = echo_records.get(candidate)
                except TypeError:  # unhashable Byzantine value: discard
                    continue
                if record is None:
                    record = echo_records[candidate] = (bytearray(n), [])
                seen, entries = record
                if seen[sender]:
                    continue
                if not echo_member_checker(candidate)(sender, msg.membership):
                    continue
                if not pki.signature_verify(
                    sender, echo_signing_bytes(instance, candidate), msg.signature
                ):
                    continue
                seen[sender] = 1
                entries.append(entry)
                maybe_ok(candidate, entries)
            elif isinstance(msg, OkMsg):
                if ok_seen[sender]:
                    continue
                if not valid_ok(sender, msg):
                    continue
                ok_seen[sender] = 1
                ok_values.append(msg.value)
                if len(ok_values) >= committee_quorum:
                    return frozenset(ok_values)
        return None

    with ctx.span("approve", instance):
        # min_count: the earliest side effect (echoing a value) needs B+1
        # init messages for that value, so the instance must hold at least
        # B+1 deliveries before the condition can do anything.
        result = yield Wait(
            step,
            description=f"approve{instance}",
            instances={instance},
            min_count=byzantine_bound + 1,
        )
    ctx.retire(instance)  # `step` was the instance's only reader
    ctx.annotate("committee", instance=instance, role=_INIT_ROLE, size=init_count)
    for candidate, (_, entries) in echo_records.items():
        ctx.annotate(
            "committee",
            instance=instance,
            role=_echo_role(candidate),
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
