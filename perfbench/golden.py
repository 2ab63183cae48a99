"""The correctness check: every durable cell against the reference digests.

``golden.json`` maps each cell of the benchmark's universe (``specs.py``)
to the SHA-256 prefix of its result record as the ``reference`` backend
produces it, serialized canonically (sorted keys, no whitespace). Any
backend must reproduce those bytes exactly. A cell that is missing from
the store, unreadable, or whose record hashes differently is a failure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from specs import Cell

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def record_digest(record: dict) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, str]:
    return json.loads(path.read_text())


def cell_of(entry: dict) -> Cell:
    """The universe cell a store entry's ``cell`` description names."""
    described = entry["cell"]
    return Cell(
        str(described["workload"]),
        str(described["predictor"]),
        int(described["num_ops"]),
        described["seed"],
    )


@dataclass
class Verdict:
    """Outcome of checking one operation's durable cells."""

    checked: int = 0
    problems: List[str] = field(default_factory=list)
    #: committed micro-ops per verified cell key
    uops: Dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.problems)


def read_json(path: Path) -> Optional[dict]:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def store_entries(results_dir: Path) -> Dict[str, Tuple[Path, dict]]:
    """Every readable store entry under ``results_dir``, by universe key.

    An unreadable entry is left out, so its cell reads as missing.
    """
    entries: Dict[str, Tuple[Path, dict]] = {}
    for path in Path(results_dir).glob("*.json"):
        entry = read_json(path)
        try:
            entries[cell_of(entry).key] = (path, entry)
        except (KeyError, TypeError, ValueError):
            continue
    return entries


def check_entries(
    entries: Dict[str, Optional[dict]],
    expected: Iterable[Cell],
    golden: Dict[str, str],
) -> Verdict:
    """Check that every expected cell is present and matches the reference."""
    verdict = Verdict()
    for cell in expected:
        verdict.checked += 1
        entry = entries.get(cell.key)
        want = golden.get(cell.key)
        if want is None:
            verdict.problems.append(f"{cell.key}: no reference digest")
            continue
        if entry is None:
            verdict.problems.append(f"{cell.key}: missing from the store")
            continue
        try:
            got = record_digest(entry["result"])
            uops = int(entry["result"]["pipeline"]["committed_uops"])
        except (KeyError, TypeError, ValueError):
            verdict.problems.append(f"{cell.key}: malformed record")
            continue
        if got != want:
            verdict.problems.append(
                f"{cell.key}: record digest {got} != reference {want}"
            )
            continue
        verdict.uops[cell.key] = uops
    return verdict


def check_store(
    store_root: Path, expected: Iterable[Cell], golden: Dict[str, str]
) -> Verdict:
    entries = store_entries(Path(store_root) / "results")
    return check_entries(
        {key: entry for key, (_path, entry) in entries.items()}, expected, golden
    )
