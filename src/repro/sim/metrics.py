"""Run reports: the measured cost of a simulated distributed algorithm."""

from __future__ import annotations

import dataclasses
from typing import Dict, List


@dataclasses.dataclass
class RunReport:
    """Cost accounting for one algorithm execution.

    Attributes
    ----------
    rounds:
        Number of synchronous rounds. For ``accounted=True`` runs this is
        computed from the paper's complexity expression with measured
        structural quantities substituted in (orchestrated algorithms
        simulate the nodes centrally, so there is no engine to count);
        otherwise it is the measured engine round count.
    messages:
        Total messages delivered (engine runs only).
    total_bits:
        Sum of message sizes in bits (engine runs only).
    max_message_bits:
        Largest single message, for CONGEST verification.
    randomness_bits:
        Distinct random bits consumed from the source during the run.
    accounted:
        True when rounds are formula-accounted rather than engine-measured.
    model:
        "LOCAL", "CONGEST", or "SLOCAL".
    notes:
        Free-form annotations (e.g. the accounting formula used).
    """

    rounds: int = 0
    messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    randomness_bits: int = 0
    accounted: bool = False
    model: str = "LOCAL"
    notes: List[str] = dataclasses.field(default_factory=list)

    def merge(self, other: "RunReport") -> "RunReport":
        """Sequential composition: costs add, maxima combine."""
        return RunReport(
            rounds=self.rounds + other.rounds,
            messages=self.messages + other.messages,
            total_bits=self.total_bits + other.total_bits,
            max_message_bits=max(self.max_message_bits, other.max_message_bits),
            randomness_bits=self.randomness_bits + other.randomness_bits,
            accounted=self.accounted or other.accounted,
            model=self.model if self.model == other.model else "MIXED",
            notes=self.notes + other.notes,
        )

    def annotate(self, note: str) -> "RunReport":
        """Append a note, returning self for chaining."""
        self.notes.append(note)
        return self

    def summary(self) -> Dict[str, object]:
        """Flat dict view for table rendering."""
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "total_bits": self.total_bits,
            "max_message_bits": self.max_message_bits,
            "randomness_bits": self.randomness_bits,
            "accounted": self.accounted,
            "model": self.model,
        }


@dataclasses.dataclass
class AlgorithmResult:
    """An algorithm's outputs plus its cost report.

    ``outputs`` maps node index to that node's local output — each
    processor "knows its own part of the output" (Section 2).
    """

    outputs: Dict[int, object]
    report: RunReport
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)

    def output_of(self, v: int) -> object:
        return self.outputs[v]
