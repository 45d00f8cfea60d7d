"""One pass of `python3 -m gexforms.cli verify-paper --json`, as users run it,
followed by one JSON line with the peak resident memory of this process.

The CLI runs through runpy exactly as ``-m`` runs it. The memory is VmHWM,
the high-water mark since exec; ``getrusage`` would also count the pages of
the parent that spawned the process.
"""

import json
import runpy
import sys


def peak_rss_mib() -> float:
    with open("/proc/self/status") as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return kib / 1024


def main() -> int:
    sys.argv = ["gexforms", "verify-paper", "--json"]
    try:
        runpy.run_module("gexforms.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
    print(json.dumps({"peak_rss_mib": peak_rss_mib()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
