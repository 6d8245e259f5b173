"""Write reference.json: each workload's outputs on the fixed reference corpus.

Run from the root of a checkout whose outputs are trusted::

    python3 bench/make_reference.py

``run.py`` compares every run's reference outputs with this file (floats
within 1e-12 relative error, everything else exactly), so regenerate it only
when a change is meant to alter the program's outputs, and say so.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import REFERENCE_SEED, WORKLOADS

    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=scratch)
    try:
        reference = {
            name: cls(REFERENCE_SEED, work).reference() for name, cls in WORKLOADS.items()
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
