"""Record the reference report bytes of every benchmark command.

Usage, from the root of a checkout: python3 perfbench/record_reference.py

Runs each distinct command line of every workload and seed once and writes
perfbench/reference.json: the SHA-256 and length of its report bytes.  Run
it only on a commit whose verdicts are known to be right; the benchmark
counts every later difference as a failed check.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import child  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    import paraferm.cli

    reference = {}
    for cmd in workloads.all_commands():
        _, _, _, rc, error, text = child.call(paraferm.cli.main, cmd)
        key = " ".join(cmd)
        if error is not None or rc != 0:
            print(f"{key}: rc={rc} error={error}", file=sys.stderr)
            return 1
        data = text.encode()
        reference[key] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(reference)} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
