"""Rewrite bench/reference.json: job 0's output digest per workload and seed.

Run from the root of a checkout whose outputs are known to be right:

    python3 bench/make_reference.py

Seeds 0-20 and the held-out seed are covered.  A seed whose job fails a
check is left out and reported.
"""

from __future__ import annotations

import json
import os
import sys

import run  # sets up the import path and BLAS threads

REFERENCE = os.path.join(run.BENCH, "reference.json")
SEEDS = range(21)


def main() -> int:
    run._import_program()
    import workloads

    with open(REFERENCE) as fh:
        held_out = json.load(fh)["held_out_seed"]
    digests = {}
    for name, make in workloads.WORKLOADS.items():
        digests[name] = {}
        for seed in [*SEEDS, held_out]:
            job = workloads.run_job(make(seed, 0))
            if job["failures"]:
                print(f"{name} seed {seed}: {job['failures']}", file=sys.stderr)
                continue
            digests[name][str(seed)] = job["digest"]
            print(name, seed, job["digest"], flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump({"held_out_seed": held_out, "job0_digests": digests}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
