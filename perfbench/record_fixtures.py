"""Record the fixed recordings of the events-recorded workload into data/.

Usage: PYTHONPATH=src python3 perfbench/record_fixtures.py

Each fixture is one run of record_execution against a correct reference
implementation (Treiber stack, 30k ops; Michael-Scott queue, 100k ops; two
threads, seed 0), stored in corpus.encode_recording's compact form and
xz-compressed.  Running this again makes new interleavings, so it changes
what the benchmark measures: do it only in a change of its own.
"""

from __future__ import annotations

import lzma

from limon import GenConfig, record_execution

from corpus import DATA, FIXTURES, encode_recording

RECORDINGS = {"stack": ("treiber-stack", 30_000), "queue": ("ms-queue", 100_000)}


def main() -> None:
    DATA.mkdir(exist_ok=True)
    for adt, (impl, ops) in RECORDINGS.items():
        h = record_execution(impl, GenConfig(ops=ops, threads=2, seed=0))
        text = encode_recording(h).encode()
        (DATA / FIXTURES[adt]).write_bytes(lzma.compress(text, preset=9))
        print(f"{FIXTURES[adt]}: {len(h)} ops")


if __name__ == "__main__":
    main()
