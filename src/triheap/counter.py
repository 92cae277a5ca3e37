"""Digit-only simulator of the powers-of-two-minus-one number system.

Each increment mirrors one insert into the real queue: digit 0 gains a tree,
then carries run under the fix policy.  remove(h) mirrors removing a
height-h root and add(other) a meld.  No keys, no nodes, just counts.
Deliberately implemented from scratch (not on top of Forest) so the two can
cross-check each other's carry scheduling.
"""

from .forest import EAGER, FixPolicy


class SkewCounter:
    """Counts in the positional system with place values 2**(h+1) - 1."""

    __slots__ = ("policy", "digits", "carries")

    def __init__(self, policy=None):
        self.policy = policy if policy is not None else FixPolicy()
        self.digits = []
        self.carries = 0

    def value(self):
        return sum(d * ((1 << (h + 1)) - 1) for h, d in enumerate(self.digits))

    def max_digit(self):
        return max(self.digits, default=0)

    def _lowest_at_least(self, bound):
        for h, d in enumerate(self.digits):
            if d >= bound:
                return h
        return -1

    def _carry_at(self, h):
        digits = self.digits
        digits[h] -= 3
        if h + 1 == len(digits):
            digits.append(0)
        digits[h + 1] += 1
        if h >= 1:
            digits[h - 1] += 2
        self.carries += 1

    def increment(self):
        """Add one to the counter; returns carries performed for this step."""
        if not self.digits:
            self.digits.append(0)
        self.digits[0] += 1
        return self._settle()

    def remove(self, h):
        """Take one tree of height h away, its two height-h-1 subtrees
        staying (the digit view of removing a root); returns carries."""
        self.digits[h] -= 1
        if h:
            self.digits[h - 1] += 2
        return self._settle()

    def add(self, other):
        """Add other's digits place by place (the digit view of meld);
        returns carries."""
        digits = self.digits
        digits += [0] * (len(other.digits) - len(digits))
        for h, d in enumerate(other.digits):
            digits[h] += d
        return self._settle()

    def _settle(self):
        """Carry under the policy, rescanning from height 0 after every
        carry, and trim top zeros; returns carries performed."""
        before = self.carries
        if self.policy.mode == EAGER:
            h = self._lowest_at_least(3)
            while h >= 0:
                self._carry_at(h)
                h = self._lowest_at_least(3)
        else:
            for _ in range(self.policy.relaxed_budget):
                h = self._lowest_at_least(3)
                if h < 0:
                    break
                self._carry_at(h)
            h = self._lowest_at_least(5)
            while h >= 0:
                self._carry_at(h)
                h = self._lowest_at_least(5)
        while self.digits and self.digits[-1] == 0:
            self.digits.pop()
        return self.carries - before
