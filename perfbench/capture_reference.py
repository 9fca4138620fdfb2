"""Capture the verify workload's reference outputs from the current program.

    python3 perfbench/capture_reference.py

Writes perfbench/reference/verify.json: for every CLI invocation of the
verify workload, its exit code, exact stdout and exact stderr.  The committed file was
captured from the program as it stood when the benchmark was defined; the
CLI promises byte-identical stdout, so recapture only when a change means
to alter the output, and say so in that change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from lcdkit import corpus  # noqa: E402

from workloads import REFERENCE, run_cli, verify_argvs  # noqa: E402


def main() -> int:
    ref = {}
    for name, argv in verify_argvs(corpus.manifest()):
        code, out, err = run_cli(argv)
        ref[name] = {"exit": code, "stdout": out, "stderr": err}
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(ref)} references to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
