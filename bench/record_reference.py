"""Record the coverage reference that ``bench/run.py`` checks its reports against.

Run from the repository root, on the commit whose numbers become the
reference::

    python3 bench/record_reference.py

For every simulation workload and every seed below ``run.REFERENCE_SEEDS`` it
stores the coverage cells (hits and count per target, strategy and method) and
the selected-size histogram of one ``simulate_coverage`` call.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.import_library()
    from subsetci.harness import simulate_coverage

    reference = {}
    for workload in run.SIMULATIONS:
        reference[workload] = {
            str(seed): run.coverage_summary(simulate_coverage(
                run.simulation_config(workload, seed), workers=1))
            for seed in range(run.REFERENCE_SEEDS)
        }
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
