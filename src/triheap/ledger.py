"""Potential accounting that machine-checks the amortized analysis.

The potential phi is the sum of the heights of the trees in the forest.
Forest.fix charges its carries here once per call, as a count and a net
height-sum change: a carry at input height h >= 1 trades three height-h
trees for one of height h+1 and two of height h-1, dropping phi by one,
while three singletons collapse into one height-1 tree and *raise* phi by
one.  The audit recomputes the height sum from the live forest, so a wrong
delta anywhere shows up as drift: that comparison, and the underflow guards
that keep phi >= 0, are the ledger's checks that can fail.

Amortized bookkeeping: each rearrangement's charge is its delta plus one (so
a regular carry nets zero and a singleton carry nets two), and structural
changes are charged at face value.  The charges sum to phi + rearrangements,
which contribution_sum returns, so the identity

    rearrangements == contribution_sum - phi

holds by construction.  With phi >= 0 and phi audited against the height
sum, it is the form of "amortized time bounds actual time" for runs that
start from an empty queue.

Comparisons are counted once, on the queue's ComparisonCounter; a record
keeps only its op's share of that count.
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
    """Running phi, rearrangement count, per-op records.

    Record keeping is optional: keep_records stores one OpRecord per public
    operation, with its share of the queue's comparisons, keep_events one
    (input_height, delta) pair per rearrangement, appended by Forest.fix.
    phi and rearrangements are always maintained and always exact.
    """

    __slots__ = ("phi", "rearrangements", "records", "events")

    def __init__(self, keep_records=False, keep_events=False):
        self.phi = 0
        self.rearrangements = 0
        self.records = [] if keep_records else None
        self.events = [] if keep_events else None

    @property
    def contribution_sum(self):
        """Sum of all amortized charges so far: phi + rearrangements.

        Derived, not counted, so rearrangements == contribution_sum - phi
        holds by construction and is no evidence on its own.
        """
        return self.phi + self.rearrangements

    def record_rearrangement(self, count, delta):
        """Account one fix call: count rearrangements moving phi by delta."""
        self.rearrangements += count
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
        self.phi += delta
        if self.phi < 0:
            raise LedgerError(f"phi underflow: {self.phi} after {op}")
        if self.records is not None:
            self.records.append(OpRecord(op, delta, phi_before=before))

    def finish_op(self, fixes, comparisons):
        """Close the most recent operation record, if records are kept,
        with its work counters."""
        if self.records is not None:
            rec = self.records[-1]
            rec.fixes = fixes
            rec.comparisons = comparisons
            rec.phi_after = self.phi

    def absorb(self, other):
        """Fold another queue's ledger into this one (meld bookkeeping).

        Other's phi moves here with its trees, so other keeps phi 0; its
        work counters stay, since that work was done.
        """
        self.phi += other.phi
        other.phi = 0
        self.rearrangements += other.rearrangements
        if self.records is not None and other.records:
            self.records.extend(other.records)
        if self.events is not None and other.events:
            self.events.extend(other.events)

    def audit(self, forest):
        """Cross-check the ledger against ground truth; returns diagnostics.

        Empty result means: phi matches the height sum recomputed from the
        live forest and is not negative.  The rearrangement count then
        equals contribution_sum - phi by construction.
        """
        problems = []
        actual = forest.height_sum()
        if actual != self.phi:
            problems.append(f"ledger phi {self.phi} != recomputed {actual}")
        if self.phi < 0:
            problems.append(f"negative phi {self.phi}")
        return problems
