"""Rewrite ``reference.json`` from the code as it stands.

    python3 perfbench/make_reference.py

The reference pins the outputs of the fixed-input commands (sweep gaps,
anneal final values, the transverse-field q2c). Regenerate it only when a
change of those outputs is intended and reviewed; a speed-up must pass the
gate against the existing file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import inputs
import run
import workloads


def main():
    run.set_threads()
    reference = {}
    for workload in inputs.WORKLOADS:
        work = os.path.join(run.STATE, "work", f"reference-{workload}")
        try:
            inputs.generate(workload, 0, work)
            from cqmap import cli

            for command in workloads.commands(workload, work):
                outcome = cli.dispatch(command.argv)
                if outcome.exit_code != 0:
                    raise SystemExit(f"{command.name}: {outcome.diagnostics}")
                if command.observe is not None:
                    reference[command.name] = command.observe(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
