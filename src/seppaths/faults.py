"""Single-fault localization from path-probe outcomes.

A deployed separating-covering system gives every element a distinct,
nonempty signature (the set of paths through it), so the set of failed
probes identifies the faulty element exactly; the all-pass report is
reserved for the healthy state because no signature is empty.

``signature_table`` and ``decode`` work on the exact table.  ``decoder``
serves many reports of one system: when the word sums certify the system
(see ``verify``: a tree host with any targets, or any host with vertex
targets), it sums the words of the failed paths, looks the sum up among the
element sums and confirms the one candidate with an exact ``incidence``
scan, so it never names an element whose signature is not exactly the
failed set.  When the sums do not certify, it is ``decode`` over
``signature_table``, with the same errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import verify
from .errors import NotCovering, NotSeparating
from .verify import Element, PathSystem, TargetSet, incidence


def signature_table(fs: PathSystem, ts: TargetSet) -> dict[Element, frozenset[int]]:
    """The injective element -> signature map of a deployed system.

    Refuses systems that do not separate and cover the target set, since
    decoding would be ambiguous.
    """
    table = verify.signatures(fs, ts)
    verdict = verify.check_signatures(table, ts)
    if not verdict:
        error = NotSeparating if verdict.label == "NotSeparated" else NotCovering
        raise error(str(verdict))
    return table


@dataclass(frozen=True)
class ProbeReport:
    """One bit per path: True when the probe traversed its path successfully."""

    outcomes: tuple[bool, ...]

    @property
    def failed(self) -> frozenset[int]:
        return frozenset(i for i, ok in enumerate(self.outcomes) if not ok)


def simulate_probes(fs: PathSystem, fault: Element | None) -> ProbeReport:
    """Single-fault model: probe i fails iff the faulty element lies on path i."""
    if fault is None:
        return ProbeReport(tuple(True for _ in fs.paths))
    failed = incidence(fs, fault)
    return ProbeReport(tuple(i not in failed for i in range(len(fs.paths))))


@dataclass(frozen=True)
class Diagnosis:
    """NoFault, Identified (with the element), or Inconsistent.

    Inconsistent reports (multi-fault or corruption) echo the failed index
    set; they are a value, not an error.
    """

    kind: str
    element: Element | None
    failed: frozenset[int]

    NO_FAULT = "NoFault"
    IDENTIFIED = "Identified"
    INCONSISTENT = "Inconsistent"


def decode(table: dict[Element, frozenset[int]], report: ProbeReport) -> Diagnosis:
    """Match the failed-probe set against the signature table."""
    failed = report.failed
    if not failed:
        return Diagnosis(Diagnosis.NO_FAULT, None, failed)
    by_signature = {sig: s for s, sig in table.items()}
    if failed in by_signature:
        return Diagnosis(Diagnosis.IDENTIFIED, by_signature[failed], failed)
    return Diagnosis(Diagnosis.INCONSISTENT, None, failed)


def decoder(fs: PathSystem, ts: TargetSet) -> Callable[[ProbeReport], Diagnosis]:
    """A report -> diagnosis function for a deployed system, giving what
    ``decode(signature_table(fs, ts), report)`` gives.

    When the word sums certify the system (``verify._certified_sums``: on
    a tree host the hash sums of any targets, on any host the vertex sums
    of vertex targets), a report is decoded by summing the words of its
    failed paths, looking the sum up among the element sums and confirming
    the one candidate with an exact ``incidence`` scan.  Equal path sets
    give equal sums, so a missed lookup or a failed confirmation means no
    element has that signature.  Otherwise, as for edge targets on a
    graph, this is ``decode`` over the exact table, which raises as
    ``signature_table`` does.
    """
    sums = verify._certified_sums(fs, ts)
    if sums is None:
        return partial(decode, signature_table(fs, ts))
    words = verify._path_words(len(fs.paths))
    owner = dict(zip(sums, ts.elements))

    def by_sums(report: ProbeReport) -> Diagnosis:
        failed = report.failed
        if not failed:
            return Diagnosis(Diagnosis.NO_FAULT, None, failed)
        # an index past the last path adds nothing; the confirmation rejects it
        s = owner.get(sum(words[i] for i in failed if i < len(words)))
        if s is not None and incidence(fs, s) == failed:
            return Diagnosis(Diagnosis.IDENTIFIED, s, failed)
        return Diagnosis(Diagnosis.INCONSISTENT, None, failed)

    return by_sums
