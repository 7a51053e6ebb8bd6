"""The paper's evaluation grid: node-count cases x parallel file systems.

Three node-assignment cases (25 / 50 / 100 nodes, each doubling the
previous — paper §5) crossed with three file-system configurations
(Paragon PFS with stripe factors 16 and 64; SP PIOFS with stripe factor
80 — DESIGN.md §4 reconstruction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.config import FSConfig
from repro.core.pipeline import NodeAssignment
from repro.machine.presets import MachinePreset, ibm_sp, paragon
from repro.stap.params import STAPParams

__all__ = ["BenchCase", "PAPER_CASES", "paper_cases", "paper_filesystems"]

#: The paper's total node counts for cases 1..3.
PAPER_CASES: Tuple[int, ...] = (25, 50, 100)


@dataclass(frozen=True)
class BenchCase:
    """One cell of the evaluation grid."""

    case_number: int           # 1..3
    total_nodes: int
    assignment: NodeAssignment
    preset: MachinePreset
    fs: FSConfig

    @property
    def label(self) -> str:
        return f"case {self.case_number} ({self.total_nodes} nodes), {self.fs.label()}"


def paper_filesystems() -> List[Tuple[MachinePreset, FSConfig]]:
    """The three (machine, file system) pairs of Tables 1-3."""
    return [
        (paragon(), FSConfig(kind="pfs", stripe_factor=16)),
        (paragon(), FSConfig(kind="pfs", stripe_factor=64)),
        (ibm_sp(), FSConfig(kind="piofs", stripe_factor=80)),
    ]


def paper_cases(params: STAPParams | None = None) -> List[BenchCase]:
    """The full 3 x 3 grid, in table order (per-FS columns, cases down)."""
    params = params or STAPParams()
    out: List[BenchCase] = []
    for preset, fs in paper_filesystems():
        for case_number in (1, 2, 3):
            assignment = NodeAssignment.case(case_number, params)
            out.append(
                BenchCase(
                    case_number=case_number,
                    total_nodes={1: 25, 2: 50, 3: 100}[case_number],
                    assignment=assignment,
                    preset=preset,
                    fs=fs,
                )
            )
    return out
