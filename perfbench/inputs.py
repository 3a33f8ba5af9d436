"""Generate one workload's input files from its seed.

    python3 perfbench/inputs.py --workload inverse_map --seed 3 --out DIR

Run as a script, this is the set-up a CLI user pays on every call: start
the interpreter, import ``cqmap`` (the CLI pulls in every module) and write
the inputs. ``run.py`` times it in a fresh process for ``setup_s``.

Only ``inverse_map`` depends on the seed. ``gap_sweep`` takes no input
files, and the ``anneal`` models are the fixed instances the reference
values were taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("gap_sweep", "anneal", "inverse_map")

# Pair couplings and fields are drawn small enough that beta*(Emax-Emin)/2
# stays below about 7, so the ground state of the mapped Hamiltonian keeps
# a positivity margin far above the q2c floor and -2 log(phi) keeps the
# 1e-8 accuracy the identity checks ask for.
PAIR_SCALE = 0.4
FIELD_SCALE = 0.2
TF_CHAIN_SPINS = 11
TF_GAMMA = 1.0


def import_cqmap():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    init = os.path.join(SRC, "cqmap", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: no cqmap sources at {init}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import cqmap
    import cqmap.cli  # noqa: F401 - a CLI call pays this import too

    if os.path.dirname(os.path.dirname(os.path.abspath(cqmap.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported cqmap from {cqmap.__file__}, not {SRC}")
    return cqmap


def random_pair_model(rng, n, n_pairs):
    """Model description with ``n_pairs`` random pair couplings and a field on
    every spin, all given as raw Walsh coefficients ``c``."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = sorted(rng.choice(len(pairs), size=n_pairs, replace=False))
    terms = [{"sites": list(pairs[k]), "c": float(rng.uniform(-PAIR_SCALE, PAIR_SCALE))}
             for k in chosen]
    terms += [{"sites": [j], "c": float(rng.uniform(-FIELD_SCALE, FIELD_SCALE))}
              for j in range(n)]
    return {"n": n, "terms": terms}


def chain_model(n, field_h=0.0):
    lattice = {"kind": "chain", "size": [n], "periodic": True, "J": 1.0}
    if field_h:
        lattice["h"] = field_h
    return {"n": n, "terms": [], "lattice": lattice}


def generate(workload, seed, out_dir):
    """Write the workload's inputs into ``out_dir``; return their file names."""
    cqmap = import_cqmap()
    import numpy as np

    os.makedirs(out_dir, exist_ok=True)
    models = {}
    if workload == "anneal":
        models = {"chain4.json": chain_model(4), "chain10_h.json": chain_model(10, 0.1)}
    elif workload == "inverse_map":
        models = {
            "pairs11.json": random_pair_model(np.random.default_rng([seed, 11]), 11, 20),
            "pairs10.json": random_pair_model(np.random.default_rng([seed, 10]), 10, 18),
        }
        H = cqmap.transverse_field_hamiltonian(cqmap.chain(TF_CHAIN_SPINS), TF_GAMMA)
        cqmap.mapping.write_hamiltonian(H, os.path.join(out_dir, "tf_chain11.txt"))
    elif workload != "gap_sweep":
        raise SystemExit(f"perfbench: unknown workload {workload!r}")
    for name, spec in models.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=1, sort_keys=True)
    return sorted(os.listdir(out_dir))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
