"""Word laws and the log-log fit behind the Table 1 comparison.

A law counts the words correct processes send in one run (the simulator's
``words_correct``) from what the run fixes: n, its f silent processes,
the deciding round r (``BARun.max_round``), split or unanimous inputs
and, for ``whp_ba``, W and the committees the run sampled.  Each law
restates its messages' costs; ``tests/analysis/test_word_laws.py`` checks it.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

__all__ = [
    "WORD_LAWS",
    "bracha_words_bound",
    "expected_rounds_bound",
    "fit_loglog_slope",
    "mmr_words_bound",
    "whp_ba_words",
]


def expected_rounds_bound(success_rate: float) -> float:
    """Upper bound 1/ρ on expected BA rounds given coin success rate ρ.

    Lemma 6.14's argument: each round ends in global estimate agreement
    with probability > ρ, after which one more round decides.
    """
    if not 0 < success_rate <= 1:
        raise ValueError("success rate must lie in (0, 1]")
    return 1 / success_rate


# The baselines.  Every quorum is n - f, so the n - f correct processes
# run the same rounds, broadcasting (n copies) one-word messages.  MMR's
# round is a BVAL of the estimate, an AUX and the coin; the run stops
# after round r + 1's BVAL and AUX, and split inputs add round 1's relay
# of the other value (exact while the estimates agree from round 2 on,
# as in every run measured).  Ben-Or's round is a report, a proposal and
# the coin; the run stops after round r + 1's report.
WORD_LAWS: dict[str, Callable[[int, int, int, bool], int]] = {
    "benor": lambda n, f, r, split: n * (n - f) * (2 * r + 1),  # local coin
    "rabin": lambda n, f, r, split: n * (n - f) * (3 * r + 1),  # lottery share
    "cachin": lambda n, f, r, split: n * (n - f) * (3 * r + 2 + split),  # coin share
    # Algorithm 1's coin: FIRST and SECOND, 2 words (VRF value, proof) each.
    "mmr+alg1": lambda n, f, r, split: n * (n - f) * (6 * r + 2 + split),
}
"""``law(n, f, r, split) -> words`` for each baseline whose count is exact."""


def mmr_words_bound(n: int, f: int, r: int) -> int:
    """Plain MMR relays as the schedule lets it: at most two BVALs and an
    AUX per round, in rounds 1 to r + 1."""
    return 3 * n * (n - f) * (r + 1)


def bracha_words_bound(n: int, f: int, r: int) -> int:
    """Bracha echoes as the schedule lets it: per RBC step a SEND and at
    most an ECHO and a READY per correct originator, three steps a round
    for r rounds, then round r + 1's first."""
    return n * (n - f) * (1 + 2 * (n - f)) * (3 * r + 1)


# The one message a committee member sends: init is value + membership
# proof, echo adds a signature, FIRST is a VRF value and proof plus the
# membership proof, SECOND adds the origin's membership proof.
_ROLE_WORDS = {"init": 3, "echo": 4, "first": 4, "second": 6}


def whp_ba_words(
    n: int, committee_quorum: int, r: int, members: Mapping[tuple, int]
) -> int:
    """Words of a ``whp_ba`` run that decided in round r.

    ``members`` maps each committee the run drew, ``(instance, role)``,
    to its correct members (``MetricsRecorder.sampled_members``).  Each
    sends its role's message to n processes; an ok carries W echoes at 3
    words each (the λ² term).  Left out: the ok members of
    ``("ba", r, "est")``, the instance ``stop_when_all_decided`` cuts.

    Two named terms make the law inexact: measured = law +
    n(3 + 3W)(c - e_ok) - 6n e_second, where c of the cut instance's ok
    members got W echoes before the stop (0 <= c <= its members), and
    e_ok / e_second ok / SECOND members elsewhere returned on W others'
    messages before their own trigger (0 <= e <= members).
    """
    cut = ("ba", r, "est")
    return n * sum(
        count * (3 + 3 * committee_quorum if role == "ok"
                 else _ROLE_WORDS[role[0] if isinstance(role, tuple) else role])
        for (instance, role), count in members.items()
        if not (role == "ok" and instance == cut)
    )


def fit_loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x.

    The E4 scaling bench uses this to verify the measured exponent:
    ~2 for the quadratic baselines, ~1 (plus log factors) for ours.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching points")
    if not all(math.isfinite(x) for x in xs) or not all(
        math.isfinite(y) for y in ys
    ):
        raise ValueError("log-log fit needs finite data (NaN/inf present)")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log-log fit needs positive data")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(y) for y in ys]
    mean_x = sum(log_x) / len(log_x)
    mean_y = sum(log_y) / len(log_y)
    numerator = sum((lx - mean_x) * (ly - mean_y) for lx, ly in zip(log_x, log_y))
    denominator = sum((lx - mean_x) ** 2 for lx in log_x)
    if denominator == 0:
        raise ValueError(
            "log-log fit needs at least two distinct x values "
            "(constant series has no slope)"
        )
    return numerator / denominator
