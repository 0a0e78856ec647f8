"""Record the seed-0 output digests that run.py compares against.

    python3 perfbench/record_golden.py

Runs every query of every workload once with seed 0, checks each answer,
and writes a sha256 prefix of each output to golden_seed0.json.  Re-record only
when an output change is intended: the digests guard byte-identical output.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.bootstrap()
    from workloads import WORKLOADS
    golden: dict[str, dict[str, str]] = {}
    for name, make in WORKLOADS.items():
        workdir = run.HERE / "work" / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            digests = golden[name] = {}
            for query in make(0, workdir).queries:
                text = query.run()
                query.check(text)
                digests[query.qid] = run.digest(text)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
