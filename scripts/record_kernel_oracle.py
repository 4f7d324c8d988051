#!/usr/bin/env python
"""Record (or check) the kernel-differential oracle digests.

Runs every cell of the kernel corpus (``tests/kernel_corpus.py``) and
writes the trace digests to ``tests/golden/kernel_oracle_digests.json``.

The checked-in digests were originally recorded under the legacy
``reference`` event core, immediately before its removal; they are the
frozen oracle the simulator is differentially tested against.
Re-record them only when a change is **meant** to alter execution
behaviour — never to paper over an unexplained digest mismatch:

    PYTHONPATH=src python scripts/record_kernel_oracle.py

``--check`` verifies instead of writing (used by CI):

    PYTHONPATH=src python scripts/record_kernel_oracle.py --check
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

FIXTURE_PATH = REPO_ROOT / "tests" / "golden" / "kernel_oracle_digests.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify fixtures instead of rewriting them",
    )
    args = parser.parse_args(argv)

    from tests.kernel_corpus import corpus_cases, run_digest

    digests = {}
    for name, (make_config, workflow) in corpus_cases().items():
        digests[name] = run_digest(make_config(), workflow)
        print(f"  {name}: {digests[name][:16]}…")

    if args.check:
        recorded = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
        mismatched = [
            name
            for name, digest in digests.items()
            if recorded.get("digests", {}).get(name) != digest
        ]
        missing = sorted(set(recorded.get("digests", {})) - set(digests))
        if mismatched or missing:
            print(f"MISMATCH: {mismatched or '-'} missing: {missing or '-'}")
            return 1
        print(f"OK: {len(digests)} cells match {FIXTURE_PATH}")
        return 0

    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(
        json.dumps(
            {"schema": "repro-kernel-oracle/1", "digests": digests},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(digests)} digests to {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
