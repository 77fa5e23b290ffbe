"""One repetition of one workload, in a fresh interpreter.

    python -I perfbench/child.py SRC WORKLOAD T0 [SPANS]

SRC is the directory holding the ``nsjack`` package.  WORKLOAD is a name from
``workloads.py``, or ``setup`` to stop once ``nsjack.cli`` is imported.  T0 is
the parent's ``time.monotonic()`` just before it spawned this process; on
Linux that clock is shared by all processes, so the set-up time covers
interpreter start-up as well as the import.  With SPANS the repetition is
traced and its spans are written to that file.

The workload's output goes to standard output.  The last line on standard
error is a JSON record: ``setup_s`` and, when traced, the counters.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import nsjack.cli  # noqa: E402

SETUP_S = time.monotonic() - float(sys.argv[3])

import json  # noqa: E402
import os  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import SMALL, WORKLOADS  # noqa: E402


def run(workload) -> int:
    if workload.kind != "generic":
        return nsjack.cli.main(workload.cli_argv())
    fam = nsjack.singular.family_context(workload.m, workload.k)
    equations = 0
    for member in fam.members:
        nsjack.jack.verify_eigen_equations(member.jack)
        equations += len(member.jack.alpha)
    print(json.dumps({"members": len(fam.members), "equations": equations}))
    return 0


def main(argv) -> int:
    name = argv[2]
    spans = argv[4] if len(argv) > 4 else None
    record = {"setup_s": SETUP_S}
    code = 0
    if name != "setup":
        workload = {w.name: w for w in [*WORKLOADS.values(), *SMALL.values()]}[name]
        tracer = None
        if spans:
            from tracing import Tracer, install

            tracer = Tracer()
            install(tracer)
        code = run(workload)
        sys.stdout.flush()
        if tracer is not None:
            tracer.write_spans(spans)
            record["counters"] = dict(tracer.counts)
    sys.stderr.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
