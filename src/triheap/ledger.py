"""Potential accounting that machine-checks the amortized analysis.

The potential phi is the sum of the heights of the trees in the forest.
Forest.fix charges its carries here once per call, as a count and a net
height-sum change: a carry at input height h >= 1 trades three height-h
trees for one of height h+1 and two of height h-1, dropping phi by one,
while three singletons collapse into one height-1 tree and *raise* phi by
one.  The audit recomputes the height sum from the live forest, so a wrong
delta anywhere shows up as drift.

Amortized bookkeeping: each rearrangement's charge is its delta plus one (so
a regular carry nets zero and a singleton carry nets two), and structural
changes are charged at face value.  contribution_sum accumulates those
charges, giving the exact identity

    rearrangements == contribution_sum - phi

which, with phi >= 0, is the machine-checked form of "amortized time bounds
actual time" for runs that start from an empty queue.
"""

from dataclasses import dataclass

from .errors import LedgerError


@dataclass
class OpRecord:
    """One public operation's bookkeeping: potential and work counters."""

    op: str
    structural_delta: int
    fixes: int = 0
    comparisons: int = 0
    phi_before: int = 0
    phi_after: int = 0

    @property
    def amortized_cost(self):
        """Fixes performed plus the op's phi change, in rearrangement units."""
        return self.fixes + (self.phi_after - self.phi_before)


class PotentialLedger:
    """Running phi, rearrangement count, comparison count, per-op records.

    Record keeping is optional: keep_records stores one OpRecord per public
    operation, keep_events one (input_height, delta) pair per rearrangement,
    appended by Forest.fix.
    The aggregate counters are always maintained and always exact.
    """

    __slots__ = ("phi", "rearrangements", "comparisons", "structural_sum",
                 "rearrangement_delta_sum", "contribution_sum", "records",
                 "events")

    def __init__(self, keep_records=False, keep_events=False):
        self.phi = 0
        self.rearrangements = 0
        self.comparisons = 0
        self.structural_sum = 0
        self.rearrangement_delta_sum = 0
        self.contribution_sum = 0
        self.records = [] if keep_records else None
        self.events = [] if keep_events else None

    def record_rearrangement(self, count, delta):
        """Account one fix call: count rearrangements moving phi by delta."""
        self.rearrangements += count
        self.rearrangement_delta_sum += delta
        self.contribution_sum += delta + count
        self.phi += delta
        if self.phi < 0:
            raise LedgerError(f"phi underflow: {self.phi} after "
                              f"{count} rearrangement(s)")

    def record_structural(self, op, delta):
        """Account a public operation's non-rearrangement height change.

        Opens the operation's record; finish_op() closes it once the fixes
        triggered by the operation have run.
        """
        before = self.phi
        self.structural_sum += delta
        self.contribution_sum += delta
        self.phi += delta
        if self.phi < 0:
            raise LedgerError(f"phi underflow: {self.phi} after {op}")
        if self.records is not None:
            self.records.append(OpRecord(op, delta, phi_before=before))

    def finish_op(self, fixes, comparisons):
        """Close the most recent operation record with its work counters."""
        self.comparisons += comparisons
        if self.records is not None:
            rec = self.records[-1]
            rec.fixes = fixes
            rec.comparisons = comparisons
            rec.phi_after = self.phi

    def absorb(self, other):
        """Fold another queue's ledger into this one (meld bookkeeping)."""
        self.phi += other.phi
        self.rearrangements += other.rearrangements
        self.comparisons += other.comparisons
        self.structural_sum += other.structural_sum
        self.rearrangement_delta_sum += other.rearrangement_delta_sum
        self.contribution_sum += other.contribution_sum
        if self.records is not None and other.records:
            self.records.extend(other.records)
        if self.events is not None and other.events:
            self.events.extend(other.events)

    def audit(self, forest):
        """Cross-check the ledger against ground truth; returns diagnostics.

        Empty result means: phi matches the height sum recomputed from the
        live forest, the running sums reproduce phi, phi never went negative,
        and the rearrangement count equals contribution_sum - phi (so it is
        bounded by contribution_sum alone).
        """
        problems = []
        actual = forest.height_sum()
        if actual != self.phi:
            problems.append(f"ledger phi {self.phi} != recomputed {actual}")
        if self.structural_sum + self.rearrangement_delta_sum != self.phi:
            problems.append(
                f"running sums {self.structural_sum} + "
                f"{self.rearrangement_delta_sum} do not reproduce phi {self.phi}")
        if self.phi < 0:
            problems.append(f"negative phi {self.phi}")
        if self.rearrangements != self.contribution_sum - self.phi:
            problems.append(
                f"rearrangements {self.rearrangements} != contributions "
                f"{self.contribution_sum} - phi {self.phi}")
        return problems
