"""Delivery order of every stateful scheduler, pinned by hash.

Each case runs one small protocol run under one scheduler, on reliable
links and on links that drop, duplicate and reorder, and hashes the
run's ``FlightRecorder.schedule()`` -- its ``(seq, sender, dest)``
deliveries in order.  The constants were computed before the kernel's
submission path and the schedulers' ``on_submit`` hooks were merged
into one; any change that moves a single delivery under one of these
schedulers changes its hash.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.experiments.scenarios import resolve_run
from repro.sim.adversary import (
    Adversary,
    ContentAwareMinWithholdScheduler,
    DelayBoundedScheduler,
    FIFOScheduler,
    PartitionScheduler,
    TargetedDelayScheduler,
)
from repro.sim.flightrecorder import FlightRecorder
from repro.sim.lossy import LossyLinkConfig
from repro.sim.runner import run_protocol

LOSSY = LossyLinkConfig(
    drop_rate=0.005, duplicate_rate=0.1, reorder_rate=0.1, reorder_hold=16
)

# whp_ba at n=24 under the four content-oblivious schedulers.
BA_N = 24
BA_SCHEDULERS = {
    "fifo": lambda rng: FIFOScheduler(),
    "delay_bounded": lambda rng: DelayBoundedScheduler(8, rng),
    "targeted": lambda rng: TargetedDelayScheduler(range(BA_N // 4), rng),
    "partition": lambda rng: PartitionScheduler(range(BA_N // 2), 400, rng),
}

# The shared coin at n=16 under the content-aware one (the E6 ablation's).
COIN_N, COIN_F = 16, 3

PINNED = {
    ("fifo", "reliable"):
        "a636f49faf9c7448251b2297dc427f700b667f779811e4598198787320576126",
    ("fifo", "lossy"):
        "3d54c8e1c5a0b893093a9ab0848f4a1c4aae565c85506a8ff366423cc98efe06",
    ("delay_bounded", "reliable"):
        "587fd13f22deb72a1355122a1d010215b5afc0c337be3bb91fe74dc9a0e41552",
    ("delay_bounded", "lossy"):
        "c8516eee65aab079571f5f2d1403f71916beb0e56638224c962dc204080d76c6",
    ("targeted", "reliable"):
        "ea86236b20bba22194eedc64987f4a5e3b023ee94f7fdcbf10cbd44f8f11cfbb",
    ("targeted", "lossy"):
        "3555602ed92a127384f37a374b1de58830e4a96403caa38beed2272f0502a8d9",
    ("partition", "reliable"):
        "093c061033032f4dc471e21900c49a72136a263ab49f974362299d46a7fb171f",
    ("partition", "lossy"):
        "129a77bf31c7ac7ab0323b788377368278b8d5b8521454c44c95d89315cbb2ae",
    ("content_aware", "reliable"):
        "ef49eb6b4fc41c38f665da73366e187d6a849cbbe0a71f739e4a7a704bb22ff5",
    ("content_aware", "lossy"):
        "50703c5c8027f91a6ab4d6290e0441b703e026ae5b882298790251f297b2dff8",
}


def schedule_digest(name: str, links: str) -> str:
    recorder = FlightRecorder()
    lossy = LOSSY if links == "lossy" else None
    if name == "content_aware":
        run_protocol(
            COIN_N, COIN_F, lambda ctx: shared_coin(ctx, 0),
            adversary=Adversary(ContentAwareMinWithholdScheduler(random.Random(5))),
            params=ProtocolParams(n=COIN_N, f=COIN_F), seed=5,
            lossy=lossy, observers=[recorder],
        )
    else:
        spec = replace(resolve_run("whp_ba", BA_N, seed=0), lossy=lossy)
        spec.run(scheduler=BA_SCHEDULERS[name](random.Random(3)), observers=[recorder])
    return hashlib.sha256(repr(recorder.schedule()).encode()).hexdigest()


@pytest.mark.parametrize("name, links", sorted(PINNED))
def test_delivery_order_is_pinned(name, links):
    assert schedule_digest(name, links) == PINNED[name, links]
