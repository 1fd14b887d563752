"""Delta-debugging recorded schedules under seq-exact replay.

A flight recording plus :class:`~repro.sim.adversary.ReplayScheduler`
makes any failure that is a function of the schedule *reproducible*:
re-running the same ``(seq, sender, dest)`` deliveries reproduces the
event log bit for bit.  That turns counterexample minimization into a
search over schedules:

* :func:`minimal_prefix` binary-searches the shortest delivery prefix
  that still reproduces the failure (sound because a prefix replay is
  *identical* to the original run up to its last delivery, so "the
  failure has happened by delivery k" is monotone in k).
* :func:`ddmin_deliveries` then delta-debugs *within* the prefix: it
  greedily drops delivery chunks whose absence still reproduces the
  failure.  A dropped delivery is a message the adversary delays past
  the end of the run -- a legal asynchronous schedule -- so what
  survives is the set of delay sites that actually *matter*.  Candidate
  schedules that make the protocol diverge from the recording (the
  replay scheduler raises ``RuntimeError``) simply don't reproduce.
* :func:`minimize_schedule` composes both into a
  :class:`MinimizationResult`.

The caller supplies ``reproduce(schedule) -> bool``: re-run the
scenario under ``ReplayScheduler(schedule)`` with
``max_deliveries=len(schedule)`` (the kernel checks the cap *before*
asking the scheduler, so a prefix run ends cleanly) and report whether
the failure -- a monitor violation, a decision mismatch, an equivalence
break -- recurred.  :mod:`repro.experiments.forensics` builds that
callable from a recording; everything here is schedule arithmetic, far
from the kernel hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:
    from repro.sim.adversary import Schedule

__all__ = [
    "MinimizationResult",
    "ddmin_deliveries",
    "minimal_prefix",
    "minimize_schedule",
]

# reproduce(schedule) -> did the failure recur under this schedule?
ReproduceFn = Callable[[Sequence[tuple[int, int, int]]], bool]


@dataclass(frozen=True)
class MinimizationResult:
    """A shrunk schedule that still reproduces the original failure."""

    original: int               # deliveries in the recorded schedule
    prefix: int                 # minimal reproducing prefix length
    schedule: Schedule          # the minimal (seq, sender, dest) deliveries
    dropped: tuple[int, ...]    # prefix seqs delayed past the end
    tests: int                  # reproduce() calls spent

    @property
    def deliveries(self) -> int:
        return len(self.schedule)

    def describe(self) -> str:
        return (
            f"minimized {self.original} deliveries -> prefix {self.prefix} "
            f"-> {self.deliveries} essential "
            f"({len(self.dropped)} delayed, {self.tests} replays)"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "original_deliveries": self.original,
            "minimal_prefix": self.prefix,
            "deliveries": self.deliveries,
            "schedule": [list(delivery) for delivery in self.schedule],
            "dropped_seqs": list(self.dropped),
            "tests": self.tests,
            "describe": self.describe(),
        }


class _Counted:
    """Wrap a reproduce callable, counting invocations."""

    def __init__(self, reproduce: ReproduceFn) -> None:
        self._reproduce = reproduce
        self.tests = 0

    def __call__(self, schedule: Sequence[tuple[int, int, int]]) -> bool:
        self.tests += 1
        return bool(self._reproduce(schedule))


def minimal_prefix(
    reproduce: ReproduceFn, schedule: Sequence[tuple[int, int, int]]
) -> int:
    """The shortest k such that ``reproduce(schedule[:k])``.

    Requires the full schedule to reproduce (raises ``ValueError``
    otherwise -- a failure that does not recur under replay of its own
    recording is not schedule-determined and cannot be shrunk).  Binary
    search is sound because prefix replays are identical to the original
    run up to their cap, so reproduction is monotone in k.
    """
    if not reproduce(schedule):
        raise ValueError(
            "failure does not reproduce under seq-exact replay of the full "
            "schedule; nothing to minimize"
        )
    low, high = 0, len(schedule)
    while low < high:
        mid = (low + high) // 2
        if reproduce(schedule[:mid]):
            high = mid
        else:
            low = mid + 1
    return high


def ddmin_deliveries(
    reproduce: ReproduceFn,
    schedule: Sequence[tuple[int, int, int]],
    max_tests: int | None = None,
) -> list[int]:
    """Greedy delta debugging over the delivery set (Zeller's ddmin).

    Returns the (sorted) indices into ``schedule`` of the deliveries that
    survive complement reduction: every attempt to drop any single
    remaining delivery stops reproducing the failure.  Assumes the full
    index set reproduces (callers establish that).

    ``max_tests`` caps the number of ``reproduce`` calls spent in this
    phase; on exhaustion the current (reproducing, possibly non-minimal)
    index set is returned.  Batch minimizers -- the fuzzer shrinks every
    counterexample it finds -- use it to bound per-candidate work.
    """
    current = list(range(len(schedule)))
    spent = 0

    def test(indices: list[int]) -> bool:
        nonlocal spent
        spent += 1
        return reproduce([schedule[i] for i in indices])

    chunks = 2
    while len(current) >= 2:
        if max_tests is not None and spent >= max_tests:
            break
        chunk = max(1, -(-len(current) // chunks))  # ceil division
        reduced = False
        for start in range(0, len(current), chunk):
            complement = current[:start] + current[start + chunk:]
            if complement and test(complement):
                current = complement
                chunks = max(2, chunks - 1)
                reduced = True
                break
        if not reduced:
            if chunk <= 1:
                break  # 1-minimal: no single delivery is droppable
            chunks = min(len(current), chunks * 2)
    if len(current) == 1 and test([]):
        current = []
    return current


def minimize_schedule(
    reproduce: ReproduceFn,
    schedule: Sequence[tuple[int, int, int]],
    prefix_only: bool = False,
    max_tests: int | None = None,
) -> MinimizationResult:
    """Shrink a recorded schedule to the deliveries that matter.

    Phase 1 truncates (:func:`minimal_prefix`); phase 2 delta-debugs
    within the prefix (:func:`ddmin_deliveries`) unless ``prefix_only``.
    The returned schedule is verified reproducing by construction: every
    accepted candidate passed ``reproduce``.  ``max_tests`` bounds the
    ddmin phase's replay budget (the prefix search is O(log n) and always
    runs); the result is then reproducing but possibly non-minimal.
    """
    counted = _Counted(reproduce)
    prefix = minimal_prefix(counted, schedule)
    kept = list(range(prefix))
    if not prefix_only and prefix:
        kept = ddmin_deliveries(counted, schedule[:prefix], max_tests=max_tests)
    survivors = set(kept)
    return MinimizationResult(
        original=len(schedule),
        prefix=prefix,
        schedule=tuple(schedule[i] for i in kept),
        dropped=tuple(
            schedule[i][0] for i in range(prefix) if i not in survivors
        ),
        tests=counted.tests,
    )
