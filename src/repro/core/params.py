"""Protocol parameters: n, f, ε, λ, d and the derived thresholds W and B.

The paper's parameter regime (Sections 2 and 5.1)::

    f = (1/3 - ε) n,   max{3/(8 ln n), 0.109} + 1/(8 ln n) < ε < 1/3
    λ = 8 ln n
    max{1/λ, 0.0362} < d < ε/3 - 1/(3λ)
    W = ⌈(2/3 + 3d) λ⌉          (quorum inside a committee)
    B = ⌊(1/3 - d) λ⌋           (whp bound on Byzantine committee members)

These constants make the Chernoff failure terms vanish as n → ∞ but are
infeasible at laptop scale (``3/(8 ln n) + 1/(8 ln n) < 1/3`` alone needs
``n > e^{12/8} ≈ 4.5`` but the committee-size concentration needs λ in the
hundreds for comfortable margins).  We therefore provide two constructors:

* :meth:`ProtocolParams.from_paper` -- the exact paper regime; reports
  which constraints (if any) are violated at the given ``n``.
* :meth:`ProtocolParams.simulation_scale` -- explicit λ and a ``d`` chosen
  to leave a ``k``-sigma liveness/safety margin at the given scale, so
  Monte-Carlo runs exercise the same code paths with measurable (rather
  than negligible) whp-failure rates.  EXPERIMENTS.md reports those rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ProtocolParams", "paper_epsilon_window", "paper_d_window"]


def paper_epsilon_window(n: int) -> tuple[float, float]:
    """The open interval the paper requires ε to lie in, for this ``n``."""
    lower = max(3 / (8 * math.log(n)), 0.109) + 1 / (8 * math.log(n))
    return lower, 1 / 3


def paper_d_window(epsilon: float, lam: float) -> tuple[float, float]:
    """The open interval the paper requires d to lie in."""
    lower = max(1 / lam, 0.0362)
    upper = epsilon / 3 - 1 / (3 * lam)
    return lower, upper


@dataclass(frozen=True)
class ProtocolParams:
    """Immutable parameter bundle shared by every protocol in the library.

    ``lam`` and ``d`` are only needed by the committee-based protocols
    (Algorithms 2-4); the full-participation shared coin (Algorithm 1) and
    the baselines use just ``n``, ``f`` and the ``quorum``.
    """

    n: int
    f: int
    lam: float | None = None
    d: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.f < self.n:
            raise ValueError("need 0 <= f < n")
        if (self.lam is None) != (self.d is None):
            raise ValueError("lam and d must be provided together")
        if self.lam is not None:
            if self.lam <= 0:
                raise ValueError("lam must be positive")
            if not 0 < self.d < 1 / 3:
                raise ValueError("need 0 < d < 1/3")

    def __hash__(self) -> int:
        # One parameter bundle is hashed on every memo/lru lookup of the
        # validation hot path; compute the field hash once per instance.
        # Same value as the generated hash, so equal bundles hash equal.
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash((self.n, self.f, self.lam, self.d))
            object.__setattr__(self, "_cached_hash", cached)
        return cached

    # -- resilience ------------------------------------------------------------

    @property
    def epsilon(self) -> float:
        """The ε of f = (1/3 - ε) n."""
        return 1 / 3 - self.f / self.n

    @property
    def quorum(self) -> int:
        """n - f: the wait threshold of full-participation protocols."""
        return self.n - self.f

    # -- committee thresholds ----------------------------------------------------

    def _require_committees(self) -> None:
        if self.lam is None:
            raise ValueError(
                "this protocol needs committee parameters; construct the "
                "ProtocolParams with lam and d"
            )

    @property
    def committee_quorum(self) -> int:
        """W = ⌈(2/3 + 3d) λ⌉ -- messages to wait for inside a committee."""
        self._require_committees()
        return math.ceil((2 / 3 + 3 * self.d) * self.lam)

    @property
    def committee_byzantine_bound(self) -> int:
        """B = ⌊(1/3 - d) λ⌋ -- whp bound on Byzantine committee members."""
        self._require_committees()
        return math.floor((1 / 3 - self.d) * self.lam)

    @property
    def sample_probability(self) -> float:
        """Probability λ/n with which each process joins each committee."""
        self._require_committees()
        return min(1.0, self.lam / self.n)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_paper(cls, n: int) -> "ProtocolParams":
        """The paper's exact regime: λ = 8 ln n, ε and d mid-window.

        If a window is empty at this ``n`` (the asymptotic constants do
        not yet bite), the midpoint construction still returns a usable
        object; call :meth:`paper_violations` to see what is off.
        """
        lam = 8 * math.log(n)
        eps_low, eps_high = paper_epsilon_window(n)
        epsilon = (eps_low + eps_high) / 2 if eps_low < eps_high else eps_high / 2
        f = max(0, math.floor((1 / 3 - epsilon) * n))
        d_low, d_high = paper_d_window(1 / 3 - f / n, lam)
        d = (d_low + d_high) / 2 if d_low < d_high else min(0.05, d_high if d_high > 0 else 0.05)
        d = min(max(d, 1e-6), 1 / 3 - 1e-6)
        return cls(n=n, f=f, lam=lam, d=d)

    @classmethod
    def simulation_scale(
        cls,
        n: int,
        f: int,
        lam: float | None = None,
        d: float | None = None,
        safety_sigmas: float = 3.0,
    ) -> "ProtocolParams":
        """Parameters that keep committee runs live at laptop scale.

        If ``d`` is not given, the largest ``d`` is chosen that leaves
        ``safety_sigmas`` binomial standard deviations between W and the
        expected number of correct committee members (liveness) and
        between B and the expected number of Byzantine ones (safety).
        If ``lam`` is not given either, the smallest λ ≥ 8 ln n (stepping
        up geometrically, capped at n) that admits such a ``d`` is used --
        at laptop scale the paper's λ = 8 ln n concentrates too weakly, so
        the inflation factor is itself a measured quantity the experiments
        report.  With explicit ``lam`` and no feasible ``d``, raises.
        """
        if lam is None:
            candidate = min(8 * math.log(n), float(n))
            while True:
                try:
                    return cls.simulation_scale(
                        n, f, lam=candidate, d=d, safety_sigmas=safety_sigmas
                    )
                except ValueError:
                    if not 0 < candidate < n:
                        raise
                    candidate = min(candidate * 1.3, float(n))
        lam = min(float(lam), float(n))
        if d is None:
            p = lam / n
            mu_correct = (n - f) * p
            sigma_correct = math.sqrt(max((n - f) * p * (1 - p), 0.0))
            mu_byz = f * p
            sigma_byz = math.sqrt(max(f * p * (1 - p), 0.0))
            # Liveness: W = ceil((2/3 + 3d)λ) <= mu_correct - k sigma.
            live = mu_correct - safety_sigmas * sigma_correct - 1 - (2 / 3) * lam
            # Safety: B = floor((1/3 - d)λ) >= mu_byz + k sigma.
            safe = lam / 3 - mu_byz - safety_sigmas * sigma_byz - 1
            # At λ = 8 ln 1 = 0 both bounds are their limit, -inf.
            d_live, d_safe = (live / (3 * lam), safe / lam) if lam else (-math.inf,) * 2
            d = min(d_live, d_safe)
            if d <= 0:
                raise ValueError(
                    f"no feasible d for n={n}, f={f}, lam={lam:.1f} at "
                    f"{safety_sigmas} sigmas (d_live={d_live:.4f}, "
                    f"d_safe={d_safe:.4f}); increase lam or decrease f"
                )
            d = min(d, 1 / 3 - 1e-9)
        return cls(n=n, f=f, lam=lam, d=d)

    # -- diagnostics ------------------------------------------------------------

    def paper_violations(self) -> list[str]:
        """Human-readable list of paper constraints this bundle violates.

        Empty means the parameters sit exactly in the paper's asymptotic
        regime; at small ``n`` they typically do not, which is expected
        and reported alongside every experiment.
        """
        violations: list[str] = []
        eps_low, eps_high = paper_epsilon_window(self.n)
        if not eps_low < self.epsilon < eps_high:
            violations.append(
                f"epsilon={self.epsilon:.4f} outside ({eps_low:.4f}, {eps_high:.4f})"
            )
        if self.lam is not None:
            target_lam = 8 * math.log(self.n)
            if abs(self.lam - target_lam) > 1e-9:
                violations.append(f"lam={self.lam:.2f} != 8 ln n = {target_lam:.2f}")
            d_low, d_high = paper_d_window(self.epsilon, self.lam)
            if not d_low < self.d < d_high:
                violations.append(
                    f"d={self.d:.4f} outside ({d_low:.4f}, {d_high:.4f})"
                )
        return violations

    def describe(self) -> str:
        """One-line summary used by examples and benchmark output."""
        parts = [f"n={self.n}", f"f={self.f}", f"eps={self.epsilon:.4f}"]
        if self.lam is not None:
            parts += [
                f"lam={self.lam:.1f}",
                f"d={self.d:.4f}",
                f"W={self.committee_quorum}",
                f"B={self.committee_byzantine_bound}",
            ]
        return " ".join(parts)
