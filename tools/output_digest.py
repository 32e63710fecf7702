"""SHA-256 digests of quatdyn's output on the benchmark's argv lists.

    python3 tools/output_digest.py [CHECKOUT]

Prints one line per workload, "<workload> <calls> <sha256>": the digest runs
over the exit code and stdout of every distinct argv that
`perfbench/workloads.py` builds for iterate, periodic and roots at seeds
1-20, one round each (the 8 goldens are among them), in the order first
built.  Each call runs in-process through `quatdyn.cli.main`.

The program is imported from CHECKOUT/src (by default this repository's);
the argv lists always come from this repository's perfbench, so that two
checkouts are compared on the same calls.  Run it from the repository root,
where the goldens are read from tests/golden.  Equal digests mean
byte-identical stdout and the same exit codes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 21)


def main() -> int:
    checkout = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT
    sys.path[:0] = [str(checkout.resolve() / "src"), str(ROOT / "perfbench")]
    import workloads
    from quatdyn.cli import main as cli_main

    for name in ("iterate", "periodic", "roots"):
        seen, digest = set(), hashlib.sha256()
        for seed in SEEDS:
            for call in workloads.build(name, seed, 1):
                key = "\0".join(call.argv)
                if key in seen:
                    continue
                seen.add(key)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli_main(call.argv)
                digest.update(f"{key}\0{code}\0{out.getvalue()}\0".encode())
        print(name, len(seen), digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
