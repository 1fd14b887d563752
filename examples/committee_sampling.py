#!/usr/bin/env python3
"""Validated committee sampling, step by step (paper Section 5.1 + Figure 1).

Shows the primitive in isolation: every process locally evaluates its VRF
on the committee seed, learns whether it is sampled, and can later prove
it; the public committee-val rejects every forgery class.  Then samples
the approver's four committees (Figure 1) and checks the S1-S4 properties
of Claim 1 against their Chernoff bounds.

Run:  python examples/committee_sampling.py
"""

from __future__ import annotations

import random

from repro.core.committees import (
    committee_seed,
    committee_val,
    sample_committee,
)
from repro.core.params import ProtocolParams
from repro.crypto.pki import PKI
from repro.experiments import fig1


def demonstrate_primitive() -> None:
    n = 40
    params = ProtocolParams(n=n, f=3, lam=12.0, d=0.05)
    pki = PKI.create(n, rng=random.Random(7))
    instance, role = ("demo-instance",), "init"

    members = sample_committee(pki, instance, role, params)
    print(f"committee for {role!r}: {sorted(members)}  (|C| = {len(members)}, "
          f"E[|C|] = {params.lam:.0f})")

    insider = next(iter(members))
    outsider = next(pid for pid in range(n) if pid not in members)
    seed_bytes = committee_seed(instance, role)
    proof = pki.vrf_scheme.prove(pki.vrf_private(insider), seed_bytes)
    print(f"member {insider} proves membership:        "
          f"{committee_val(pki, instance, role, insider, proof, params)}")
    outsider_proof = pki.vrf_scheme.prove(pki.vrf_private(outsider), seed_bytes)
    print(f"non-member {outsider} claims membership:    "
          f"{committee_val(pki, instance, role, outsider, outsider_proof, params)}")
    print(f"member's proof replayed by {outsider}:      "
          f"{committee_val(pki, instance, role, outsider, proof, params)}")
    print(f"member's proof replayed for role 'ok':   "
          f"{committee_val(pki, instance, 'ok', insider, proof, params)}")


def figure_1_statistics() -> None:
    print("\n--- Figure 1: the approver's four committees, measured ---\n")
    print(fig1.format_fig1(*fig1.run(n=400, seeds=range(25), safety_sigmas=3.0)))


if __name__ == "__main__":
    demonstrate_primitive()
    figure_1_statistics()
