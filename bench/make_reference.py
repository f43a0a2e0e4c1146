"""Record the reference outputs the benchmark checks against.

    OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py [full|toy ...]

Runs every workload once with seed 0 at each named scale and stores the
observed outputs in bench/reference.json. The stored references were made
at the commit the benchmark was introduced on; re-recording them hides any
numerical change, so do it only when a change to the algorithms is meant
to move these outputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from worker import HERE, import_tibt


def main(scales):
    import_tibt()
    from workloads import REFERENCE_PATH, WORKLOADS

    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    for scale in scales:
        for name, cls in WORKLOADS.items():
            with tempfile.TemporaryDirectory(dir=HERE) as workdir:
                wl = cls(0, scale, workdir)
                wl.stage()
                wl.prepare()
                observed = wl.observe(wl.run())
            refs.setdefault(scale, {})[name] = observed if wl.jobs > 1 else observed[0]
            print(scale, name, observed, flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:] or ["toy", "full"])
