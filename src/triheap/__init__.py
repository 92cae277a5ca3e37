"""triheap: a priority queue built from perfect heap-ordered binary trees.

The structural primitive takes three equal-height perfect heap-ordered
trees and, in constant time and two comparisons, produces one tree of
height h+1 (rooted at the smallest of the three roots) plus that root's two
former subtrees of height h-1.  Iterating it bounds the number of trees per
height, which keeps the whole forest logarithmic, and a built-in potential
ledger machine-checks the amortized accounting as the queue runs.
"""

from .counter import SkewCounter
from .errors import (ContractViolation, EmptyQueueError, HeapError,
                     InvalidHandleError, LedgerError)
from .forest import EAGER, RELAXED, FixPolicy, Forest
from .ledger import OpRecord, PotentialLedger
from .oracle import OracleQueue, Verdict, oracle_apply, run_differential
from .queue import Queue
from .tree import (ComparisonCounter, Handle, Node, PerfectTree,
                   sift_to_root, sift_up, validate_tree)
from .workload import (QueueRunner, StatsRecord, WorkloadScript,
                       format_script, generate_script, parse_script)

__version__ = "0.1.0"

__all__ = [
    "ComparisonCounter", "ContractViolation", "EAGER", "EmptyQueueError",
    "FixPolicy", "Forest", "Handle", "HeapError", "InvalidHandleError",
    "LedgerError", "Node", "OpRecord", "OracleQueue", "PerfectTree",
    "PotentialLedger", "Queue", "QueueRunner", "RELAXED", "SkewCounter",
    "StatsRecord", "Verdict", "WorkloadScript", "format_script",
    "generate_script", "oracle_apply", "parse_script", "run_differential",
    "sift_to_root", "sift_up", "validate_tree",
]
