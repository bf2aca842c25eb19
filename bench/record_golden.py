"""Record the digests of what each workload's golden jobs emit.

    python3 bench/record_golden.py

Writes bench/golden.json.  Run it only when a change to the emitted bytes
is intended; the benchmark counts every golden job whose digest differs
as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=OUT_DIR)
    golden = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls()
            inputs = wl.build(0, Path(workdir))
            digests = {}
            for x in inputs.golden:
                result = wl.job(x)
                problems = wl.check(x, result)
                if problems:
                    print(f"{name}: golden job failed its check: {problems}",
                          file=sys.stderr)
                    return 1
                digests[workloads.key_of(workloads.params_of(x))] = wl.digest(x, result)
            golden[name] = digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.GOLDEN_FILE.write_text(json.dumps(golden, indent=2) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
