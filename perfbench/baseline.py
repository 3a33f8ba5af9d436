"""Time the single library stages of the ROADMAP baseline table, once each.

    python3 perfbench/baseline.py

Prints one line per stage with its wall time and a check value, single
BLAS thread. These are single runs for comparison with the ROADMAP table,
not benchmark metrics. The chain(22) row is left out: its generator and
COO temporaries take several GB.
"""

from __future__ import annotations

import sys
import time

import inputs
import run


def timed(label, fn, note=lambda value: ""):
    start = time.perf_counter()
    value = fn()
    print(f"{label:<50} {time.perf_counter() - start:8.2f} s  {note(value)}", flush=True)
    return value


def main():
    run.set_threads()
    cqmap = inputs.import_cqmap()
    linear = cqmap.make_schedule

    timed("run_qa chain(4), Gamma 10->0, T=100, steps=50",
          lambda: cqmap.run_qa(cqmap.chain(4), linear("linear", (10.0, 0.0), 100.0), 50),
          lambda qa: f"norm drift {qa.norm_drift:.2e}, success {qa.final_success:.9f}")
    timed("run_sa chain(10), beta 0.1->3, T=50, steps=100",
          lambda: cqmap.run_sa(cqmap.chain(10), linear("linear", (0.1, 3.0), 50.0),
                               "heat-bath", 100),
          lambda sa: f"success {sa.final_success:.9f}")
    grid = cqmap.grid(4, 5)
    W = timed("build_generator grid 4x5 (n=20), beta 0.44",
              lambda: cqmap.build_generator(grid, 0.44))
    H = timed("classical_to_quantum grid 4x5", lambda: cqmap.classical_to_quantum(grid, 0.44, W))
    del W
    timed("extreme_eigenpairs(k=2) grid 4x5", lambda: cqmap.extreme_eigenpairs(H, k=2),
          lambda spec: f"gap {spec.gap:.12g}")
    del H
    chain12 = cqmap.chain(12)
    H12 = cqmap.classical_to_quantum(chain12, 0.44, cqmap.build_generator(chain12, 0.44))
    timed("quantum_to_classical chain(12) (dense eigh)",
          lambda: cqmap.quantum_to_classical(H12), lambda q: f"lambda0 {q.lambda0:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
