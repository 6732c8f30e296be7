"""Record the output digests of the default seed into digests.json.

    python3 bench/record.py

Run it only on a commit whose output is known to be right: every later run
with the default seed compares its output bytes with these digests.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import worker
import workloads


def main() -> int:
    sys.path.insert(0, str(worker.ROOT / "src"))
    import stiefelq as lib

    record = {}
    for name in workloads.WORKLOADS:
        passes = workloads.make_passes(name, workloads.DEFAULT_SEED, worker.pool_jobs(name))
        results = [workloads.run_pass(lib, name, inputs, p) for p, inputs in enumerate(passes)]
        bad = [e for r in results for e in r.errors]
        if bad:
            print("\n".join(bad[:20]), file=sys.stderr)
            return 1
        record[name] = [r.digest for r in results]
        print(f"{name}: {len(results)} passes", file=sys.stderr)
    cli = subprocess.run(
        [sys.executable, "-m", "stiefelq", "compute", "--n", "4", "--k", "2", "--m", "2"],
        cwd=worker.ROOT, env={"PYTHONPATH": str(worker.ROOT / "src")},
        capture_output=True, check=True,
    )
    record["cli_compute"] = hashlib.sha256(cli.stdout).hexdigest()
    workloads.DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
