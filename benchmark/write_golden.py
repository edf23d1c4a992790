"""Regenerate benchmark/cli_demo_golden.json, the expected stdout of cli_demo.

    python3 benchmark/write_golden.py

Run it only when a change to the CLI output is intended; the cli_demo
workload fails its check on any other difference.
"""

from __future__ import annotations

import json
import sys

from run import use_source_tree


def main() -> int:
    use_source_tree()
    from workloads import DEMO_COMMANDS, GOLDEN, run_cli

    entries = []
    for argv in DEMO_COMMANDS:
        code, stdout = run_cli(list(argv))
        if code != 0:
            print(f"tropicalc {' '.join(argv)} exited with {code}", file=sys.stderr)
            return 1
        entries.append({"argv": list(argv), "stdout": stdout})
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} commands to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
