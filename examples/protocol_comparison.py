#!/usr/bin/env python3
"""A miniature of the paper's Table 1, measured (experiment T1).

Every protocol row -- Ben-Or, Bracha, Rabin, Cachin-style, MMR, MMR with
the paper's Algorithm 1 coin, and the paper's committee-based BA -- runs
on the same simulator with split inputs and silent Byzantine faults at
its own resilience operating point.  Compare the 'mean rounds' column:
the local-coin protocols pay many rounds, the common-coin ones a small
constant.  The word columns show the quadratic-versus-Õ(n) structure
(the committee protocol's advantage is asymptotic; see
benchmarks/bench_e4_scaling.py for the scaling and each protocol's
word law).

Run:  python examples/protocol_comparison.py            (~1 minute)
"""

from __future__ import annotations

import time

from repro.experiments import table1


def main() -> None:
    start = time.time()
    rows = table1.run(n=30, seeds=range(3))
    print("Table 1, regenerated at n = 30 (3 seeds per row):\n")
    print(table1.format_table1(rows))
    print(f"\n[{time.time() - start:.0f}s]  Columns 2-4 restate the paper's "
          "analytic claims; the rest are measured.")


if __name__ == "__main__":
    main()
