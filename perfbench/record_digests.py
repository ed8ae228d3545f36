#!/usr/bin/env python3
"""Record the sha256 of every workload report for a range of seeds.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py 0 20

writes ``perfbench/digests.json`` for seeds 0..20. The benchmark compares
each run's report digests against this table and reports a change as
information, never as a failed operation. Re-record only when a change to
the report bytes is deliberate and documented.
"""

from __future__ import annotations

import json
import sys

import gate
import run
import workloads


def main(argv) -> int:
    first, last = (int(a) for a in argv)
    sys.path.insert(0, str(run.ROOT / "src"))
    from coeffbounds import cli

    table = {}
    for name in sorted(workloads.WORKLOADS):
        for seed in range(first, last + 1):
            workload = workloads.build(name, seed, run.OUT_DIR / "inputs")
            workload.write_inputs()
            outcomes = run.run_pass(cli, workload.commands)
            g = gate.Gate()
            g.check_pass(outcomes)
            if g.failed:
                print(f"{name} seed {seed} fails the gate: {g.problems}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = {
                o.command.label: gate.sha256(o.text) for o in outcomes
            }
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
