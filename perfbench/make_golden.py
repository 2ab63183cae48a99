"""Regenerate ``golden.json``: reference digests for the whole cell universe.

Runs every cell of ``specs.universe()`` on the ``reference`` backend and
records the digest of its result record. Only needed when the universe
changes or a change to the simulator deliberately alters results::

    python3 perfbench/make_golden.py

It simulates about seven thousand short cells on one worker per core
(about 8 minutes on two cores).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from golden import GOLDEN_PATH, record_digest  # noqa: E402
from specs import Cell, universe  # noqa: E402


def _reference_digest(cell: Cell) -> tuple:
    from repro.sim.simulator import run_spec
    from repro.sim.spec import RunSpec

    spec = RunSpec(
        cell.workload,
        cell.predictor,
        num_ops=cell.num_ops,
        seed=cell.seed,
        backend="reference",
    )
    return cell.key, record_digest(run_spec(spec).to_record())


def _init_worker(src: str) -> None:
    sys.path.insert(0, src)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN_PATH)
    args = parser.parse_args(argv)
    src = str(HERE.parent / "src")
    cells = sorted(universe().values(), key=lambda cell: cell.key)
    digests = {}
    context = multiprocessing.get_context("spawn")
    with context.Pool(os.cpu_count(), initializer=_init_worker, initargs=(src,)) as pool:
        for done, (key, digest) in enumerate(
            pool.imap_unordered(_reference_digest, cells, chunksize=8), 1
        ):
            digests[key] = digest
            if done % 500 == 0:
                print(f"{done}/{len(cells)} cells", flush=True)
    args.out.write_text(json.dumps(dict(sorted(digests.items())), indent=0) + "\n")
    print(f"wrote {len(digests)} digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
