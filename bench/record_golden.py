"""Write ``golden.json``: reference outputs of every workload at the default seed.

    python3 bench/record_golden.py

The benchmark compares each run at the default seed and sizes against these
values. Re-record only when a change is meant to alter the library's outputs.
"""

import json
import os

import run

if __name__ == "__main__":
    run.load_library()
    import workloads
    from tracing import Calls

    os.makedirs(run.OUT_DIR, exist_ok=True)
    golden = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(run.DEFAULT_SEED, workloads.DEFAULT, Calls(), run.OUT_DIR)
        wl.complete(0, Calls())
        wl.finish(Calls())
        golden[name] = wl.golden()
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
