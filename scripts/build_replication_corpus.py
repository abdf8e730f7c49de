#!/usr/bin/env python3
"""Regenerate the bundled replication corpus files.

The corpus is fully determined by the published table cells and pause
histogram held in pausecue.replication.  This script holds the rules that
turn them into records and rewrites the JSONL files under src/pausecue/data/
(or a directory of your choice), so they never drift from the cell
definitions.  No command runs it: every command reads the files it writes.

    PYTHONPATH=src python scripts/build_replication_corpus.py [--out DIR]
"""

import argparse
from pathlib import Path

from pausecue.focus import OP_KINDS, operation
from pausecue.fragments import ROW_LABELS, CodedRecord, write_coded
from pausecue.pauses import PauseRecord, write_pauses
from pausecue.replication import (PAUSE_HIST_INITIAL, PAUSE_HIST_INTERNAL, PAUSES_FILE,
                                  RECORDS_FILE, TOKEN_OPERATION_CELLS)
from pausecue.stats import CANONICAL_TOKEN_ROWS, TAIL_TOKEN_ROWS

ROW_ORDER = CANONICAL_TOKEN_ROWS + TAIL_TOKEN_ROWS

ROW_CONSTITUENT = {label: constituent for constituent, label in ROW_LABELS.items()}

#: (pops, embedding depth) of each reconstructed operation.
_POPS_DEPTH_BY_OP = {"Initiate": (0, 2), "Retain": (0, 2), "Return": (1, 1), "Replace": (1, 1)}


def build_records() -> list[CodedRecord]:
    """Reconstruct the 100 coded records from the token-by-operation cells."""
    records: list[CodedRecord] = []
    index = 0
    for row in ROW_ORDER:
        for op_name in OP_KINDS:
            cell = TOKEN_OPERATION_CELLS.get((row, op_name))
            if cell is None:
                continue
            mean, count = cell
            pops, depth = _POPS_DEPTH_BY_OP[op_name]
            op = operation(op_name, pops)
            constituent = ROW_CONSTITUENT.get(row, "cue_phrase")
            for _ in range(count):
                records.append(CodedRecord(
                    fragment_index=index,
                    pause_before_s=mean,
                    initial_constituent=constituent,
                    initial_token=row if constituent == "cue_phrase" else "",
                    operation=op,
                    embedding_depth=depth,
                    turn_position="initiating" if index == 0 else "continuing",
                ))
                index += 1
    return records


def build_pauses() -> list[PauseRecord]:
    """Reconstruct the measured-pause inventory from the published histogram."""
    records: list[PauseRecord] = []
    start = 0.0
    for position, hist in (("fragment_initial", PAUSE_HIST_INITIAL),
                           ("fragment_internal", PAUSE_HIST_INTERNAL)):
        for duration in sorted(hist):
            for _ in range(hist[duration]):
                records.append(PauseRecord(start_s=start, raw_duration_s=duration,
                                           position=position))
                start += duration + 1.0
    return records


def write_corpus(directory: str | Path) -> tuple[Path, Path]:
    """Write the corpus files into ``directory``; their paths."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    records_path = base / RECORDS_FILE
    pauses_path = base / PAUSES_FILE
    write_coded(records_path, build_records())
    write_pauses(pauses_path, build_pauses())
    return records_path, pauses_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    default = Path(__file__).resolve().parent.parent / "src" / "pausecue" / "data"
    parser.add_argument("--out", type=Path, default=default)
    args = parser.parse_args()
    records_path, pauses_path = write_corpus(args.out)
    print(f"wrote {records_path} ({len(build_records())} records)")
    print(f"wrote {pauses_path} ({len(build_pauses())} pauses)")


if __name__ == "__main__":
    main()
