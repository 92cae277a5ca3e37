"""Script parsing, generation, and the replay runner's meld-split."""

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from triheap.errors import EmptyQueueError
from triheap.forest import FixPolicy
from triheap.oracle import run_differential
from triheap.workload import (DEFAULT_WEIGHTS, QueueRunner, ScriptParseError,
                              WorkloadScript, format_script, generate_script,
                              parse_script)

from conftest import assert_comparisons_recorded

ROOT = Path(__file__).resolve().parent.parent


class TestParse:

    def test_all_op_kinds(self):
        text = """# seed=99
        i 5
        i -3          # negative keys are fine
        fm
        dk 1 -10
        dm
        del 0
        i 7
        meld-split 0.25
        dm
        """
        script = parse_script(text)
        assert script.seed == 99
        assert script.ops == [("i", 5), ("i", -3), ("fm",), ("dk", 1, -10),
                              ("dm",), ("del", 0), ("i", 7),
                              ("meld-split", 0.25), ("dm",)]

    def test_round_trip(self):
        for script in (generate_script(4, 300),
                       WorkloadScript([("i", 0), ("meld-split", 1 / 3)], 4)):
            assert parse_script(format_script(script)).ops == script.ops
            assert parse_script(format_script(script)).seed == 4

    @pytest.mark.parametrize("seed", [
        "3-fill", "0:1000:mixed", -5, pytest.param(5, id="int-5"),
        pytest.param("5", id="str-5"), "-3", "007", '"5"'])
    def test_seed_survives_the_text(self, seed):
        """The string seeds of perfbench's verify-audit fill and of
        `triheap bench`'s mix, ints, and string seeds that bare would read
        back as an int or lose their quotes parse back as written, so the
        parsed seed regenerates the same ops.  Only the last kind is
        written in quotes."""
        script = generate_script(seed, 300)
        text = format_script(script)
        quoted = seed in ("5", "-3", "007", '"5"')
        assert text.startswith(f'# seed="{seed}"\n' if quoted
                               else f"# seed={seed}\n")
        parsed = parse_script(text)
        assert parsed.seed == seed
        assert generate_script(parsed.seed, 300).ops == script.ops

    def test_unknown_op_rejected(self):
        with pytest.raises(ScriptParseError):
            parse_script("pop 3\n")

    def test_forward_handle_reference_rejected(self):
        with pytest.raises(ScriptParseError):
            parse_script("i 1\ndk 1 0\n")

    def test_bad_fraction_rejected(self):
        with pytest.raises(ScriptParseError):
            parse_script("i 1\nmeld-split 1.5\n")

    def test_garbage_rejected(self):
        with pytest.raises(ScriptParseError):
            parse_script("i five\n")

    def test_blank_and_comment_lines_skipped(self):
        assert parse_script("\n# nothing\n\n").ops == []

    def test_inline_seed_comment(self):
        script = parse_script("i 5 # seed=9\n# seed=4\ni 6\n")
        assert script.ops == [("i", 5), ("i", 6)]
        assert script.seed == 9

    @pytest.mark.parametrize("text, message", [
        ("pop 3\n", "line 1: bad op 'pop 3'"),
        ("i 1  2 # two keys\n", "line 1: bad op 'i 1  2'"),
        ("\tI 3\n", "line 1: bad op 'I 3'"),
        ("i\n", "line 1: bad op 'i'"),
        ("dm 1\n", "line 1: bad op 'dm 1'"),
        ("fm x\n", "line 1: bad op 'fm x'"),
        ("i 1\ndk 0\n", "line 2: bad op 'dk 0'"),
        ("del\n", "line 1: bad op 'del'"),
        ("i 1\ndk 1 0\n", "line 2: handle 1 not inserted yet"),
        ("i 1\n  dk -1 5  # c\n", "line 2: handle -1 not inserted yet"),
        ("i 1\n\ndel 3\n", "line 3: handle 3 not inserted yet"),
        ("i 1\nmeld-split 1.5\n", "line 2: fraction 1.5 outside [0, 1]"),
        ("i 1\ni 2\nmeld-split -0.1\n",
         "line 3: fraction -0.1 outside [0, 1]"),
        ("i 1\nmeld-split nan\n", "line 2: fraction nan outside [0, 1]"),
        ("i five\n", "line 1: invalid literal for int() with base 10: 'five'"),
        ("# seed=4\ni 1\ndk 0 x\n",
         "line 3: invalid literal for int() with base 10: 'x'"),
        ("del x\n", "line 1: invalid literal for int() with base 10: 'x'"),
        ("meld-split half\n",
         "line 1: could not convert string to float: 'half'"),
    ])
    def test_error_messages_are_pinned(self, text, message):
        with pytest.raises(ScriptParseError) as info:
            parse_script(text)
        assert str(info.value) == message


MELD_SPLIT_HEAVY = dict(DEFAULT_WEIGHTS, **{"meld-split": 25})

SCRIPT_WEIGHTS = {
    "default": None,
    "insert-only": {"i": 1},
    "meld-split-heavy": MELD_SPLIT_HEAVY,
    "reordered": {"meld-split": 5, "del": 5, "dk": 10, "fm": 0, "dm": 25,
                  "i": 40},
    "dk-del-heavy": {"i": 30, "dm": 5, "fm": 5, "dk": 35, "del": 25},
}

# (weights, seed) -> sha256 prefix of format_script(generate_script(seed,
# 3000, weights)); any change to how a seed's draws become ops moves one.
# "3-fill" is the string seed perfbench's verify-audit fill uses.
SCRIPT_DIGESTS = {
    ("default", 0): "a2816a7a21a625b2",
    ("default", 1): "8bc217ef042fc9c0",
    ("default", 2011): "30d4e18e81214879",
    ("default", "3-fill"): "6e4fa61b001c975e",
    ("insert-only", 0): "e71dd4156451ee3b",
    ("insert-only", 1): "efbb6a0cdcf93cbc",
    ("insert-only", 2011): "9a83d06beea5ab1b",
    ("insert-only", "3-fill"): "68ff4ad099ed5975",
    ("meld-split-heavy", 0): "a33f216ae71af093",
    ("meld-split-heavy", 1): "51f62ac84e230121",
    ("meld-split-heavy", 2011): "e171a1714bc5fee5",
    ("meld-split-heavy", "3-fill"): "fb2eb1eebb2c8346",
    ("reordered", 0): "2764592712155fa2",
    ("reordered", 1): "374a721b6eb526c8",
    ("reordered", 2011): "eaa03177ed814104",
    ("reordered", "3-fill"): "4b3d136235682d20",
    ("dk-del-heavy", 0): "b94a85d64c0302d5",
    ("dk-del-heavy", 1): "0a7998eb2662e32e",
    ("dk-del-heavy", 2011): "b9e0b602485271dd",
    ("dk-del-heavy", "3-fill"): "b9988a39293a64b7",
}

# seed -> sha256 prefix of format_script(generate_script(seed, 25_000)), the
# mixed-relaxed benchmark's script size: longer scripts reach shared keys
# and ambiguous delete-min ties far more often than the 3,000-op ones.
LONG_SCRIPT_DIGESTS = {
    1: "904b1fab9c26228b",
    2401: "a03b15adc656b634",
}


class TestGenerate:

    def test_deterministic(self):
        assert generate_script(7, 500).ops == generate_script(7, 500).ops

    def test_all_kinds_appear(self):
        kinds = {op[0] for op in generate_script(1, 5000).ops}
        assert kinds == set(DEFAULT_WEIGHTS)

    def test_replays_cleanly(self):
        runner = QueueRunner()
        for op in generate_script(3, 3000).ops:
            runner.apply(op)  # would raise on any bad handle or key order
        assert runner.queue.validate() == []

    def test_requested_length(self):
        assert len(generate_script(0, 123)) == 123

    def test_make_workload_script(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "make_workload.py"),
             "--seed", "7", "--ops", "50"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == format_script(generate_script(7, 50))
        script = parse_script(proc.stdout)
        assert len(script.ops) == 50
        assert script.seed == 7

    @pytest.mark.parametrize("flags", [
        ["--weight-dm", "-1"],
        [f"--weight-{kind}=0" for kind in DEFAULT_WEIGHTS]], ids=repr)
    def test_make_workload_bad_weight_is_a_usage_error(self, flags):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "make_workload.py"),
             "--ops", "5", *flags],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "error: weights must be ints >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("ops", ["-5", "-1"])
    def test_make_workload_negative_ops_is_a_usage_error(self, ops):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "make_workload.py"),
             "--ops", ops],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "error: --ops must be >= 0" in proc.stderr

    @pytest.mark.parametrize("weights", [
        {"i": 0}, {"i": -1}, {"i": 1.5}, {"i": 5, "dm": -1}, {"i": 2.0}],
        ids=repr)
    def test_bad_weights_raise_before_any_draw(self, weights):
        def expire(signum, frame):
            raise TimeoutError("generate_script did not return")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            for n_ops in (0, 100):
                with pytest.raises(ValueError, match="must be ints >= 0"):
                    generate_script(0, n_ops, weights)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    @pytest.mark.parametrize("weights", [
        {"foo": 1}, {"i": 1, "DM": 3}, {"i": 1, "dm": 0, "meld_split": 2}],
        ids=repr)
    def test_unknown_weight_kinds_raise_before_any_draw(self, weights):
        def expire(signum, frame):
            raise TimeoutError("generate_script did not return")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            for n_ops in (0, 100):
                with pytest.raises(ValueError, match="unknown op kinds"):
                    generate_script(0, n_ops, weights)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    def test_scripts_are_pinned(self):
        seeds = (0, 1, 2011, "3-fill")
        digests = {}
        for name, weights in SCRIPT_WEIGHTS.items():
            for seed in seeds:
                text = format_script(generate_script(seed, 3000, weights))
                digests[name, seed] = \
                    hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digests == SCRIPT_DIGESTS

    def test_long_scripts_are_pinned(self):
        digests = {
            seed: hashlib.sha256(format_script(
                generate_script(seed, 25_000)).encode()).hexdigest()[:16]
            for seed in LONG_SCRIPT_DIGESTS}
        assert digests == LONG_SCRIPT_DIGESTS


class TestMeldSplit:

    def test_population_and_handles_survive(self):
        runner = QueueRunner()
        keys = [9, 4, 7, 1, 8, 2, 6, 3, 5, 0]
        for k in keys:
            runner.apply(("i", k))
        handles = list(runner.handles)
        for fraction in (0.0, 0.3, 0.5, 1.0):
            runner.apply(("meld-split", fraction))
            q = runner.queue
            assert len(q) == len(keys)
            assert q.validate() == []
            for handle, key in zip(handles, keys):
                assert handle.alive and handle.key == key
        assert [runner.apply(("dm",)) for _ in range(10)] == sorted(keys)

    def test_ledger_audits_through_split(self):
        runner = QueueRunner()
        for op in generate_script(5, 500).ops:
            runner.apply(op)
        runner.apply(("meld-split", 0.4))
        assert runner.queue.ledger.audit(runner.queue.forest) == []

    def test_empty_queue_split_is_fine(self):
        runner = QueueRunner()
        runner.apply(("meld-split", 0.5))
        assert len(runner.queue) == 0
        with pytest.raises(EmptyQueueError):
            runner.apply(("dm",))


# (weights, mode, seed) -> (comparisons, carries, phi, digits, records,
# forest digest) after 20,000 ops; any change to the carry schedule or the
# comparison count moves one of these.  The digest hashes every tree's keys
# in trees() order, so it also moves if delete-min picks another of two tied
# roots.
CARRY_SCHEDULE = {
    ("default", "eager", 0):
        (95489, 24511, 61, [2, 2, 0, 1, 1, 2, 2, 2, 2], 21934,
         "c79c6a678907d754"),
    ("default", "eager", 1):
        (92913, 23485, 68, [2, 2, 2, 2, 1, 2, 2, 2, 2], 21886,
         "1a68222afb52c09a"),
    ("default", "eager", 2):
        (95017, 24228, 44, [2, 2, 0, 1, 1, 1, 1, 1, 1, 1], 22092,
         "81150e2f5bc73235"),
    ("default", "relaxed", 0):
        (116232, 19867, 90, [2, 2, 1, 3, 4, 4, 2, 3, 1], 21934,
         "6a06596570710419"),
    ("default", "relaxed", 1):
        (111800, 19298, 88, [0, 4, 2, 2, 3, 3, 3, 3, 1], 21886,
         "03ff47bfdae77326"),
    ("default", "relaxed", 2):
        (113653, 19515, 90, [1, 1, 4, 2, 2, 4, 3, 3, 1], 22092,
         "8c92e3ea31e46165"),
    ("meld-split-heavy", "eager", 0):
        (85214, 19524, 51, [2, 2, 2, 2, 0, 2, 1, 1, 2], 28448,
         "4975ab6c16e37d94"),
    ("meld-split-heavy", "eager", 1):
        (84826, 19480, 55, [0, 2, 2, 2, 1, 2, 1, 1, 2], 28294,
         "5136101a80856405"),
    ("meld-split-heavy", "eager", 2):
        (87396, 20353, 57, [1, 2, 2, 1, 2, 1, 2, 1, 2], 28324,
         "3a56f1e6711e866c"),
    ("meld-split-heavy", "relaxed", 0):
        (99236, 17003, 83, [4, 1, 1, 3, 4, 2, 4, 3], 28448,
         "138059e2a6bab939"),
    ("meld-split-heavy", "relaxed", 1):
        (97887, 16820, 59, [1, 2, 2, 2, 1, 4, 0, 1, 2], 28294,
         "b51fdbae090cfe4c"),
    ("meld-split-heavy", "relaxed", 2):
        (101396, 17525, 75, [1, 3, 0, 2, 4, 2, 3, 2, 1], 28324,
         "63d7d9ba5c60506b"),
}


@pytest.mark.parametrize("case", list(CARRY_SCHEDULE),
                         ids=lambda case: "-".join(map(str, case)))
def test_carry_schedule_is_pinned(case):
    name, mode, seed = case
    weights = MELD_SPLIT_HEAVY if name == "meld-split-heavy" else None
    runner = QueueRunner(policy=FixPolicy(mode), keep_records=True)
    runner.run(generate_script(seed, 20_000, weights).ops)
    q = runner.queue
    trees = repr([tree.keys() for tree in q.forest.trees()])
    digest = hashlib.sha256(trees.encode()).hexdigest()[:16]
    assert (q.comparator.count, q.ledger.rearrangements, q.ledger.phi,
            q.forest.digits(), len(q.ledger.records), digest) == \
        CARRY_SCHEDULE[case]
    assert_comparisons_recorded(q)


class TestStats:

    def test_snapshot_fields(self):
        runner = QueueRunner()
        for k in (5, 3, 9):
            runner.apply(("i", k))
        rec = runner.stats(2, "i")
        assert rec.n == 3
        assert rec.phi == 1
        assert rec.rearrangements == 1
        assert rec.digits == [0, 1]
        assert rec.max_digit == 1
        assert rec.tree_count == 1
        assert rec.row() == (2, "i", 3, 1, 1, 2, 1, 1)

    def test_deterministic_given_script_policy(self):
        script = generate_script(8, 400)
        rows = []
        for _ in range(2):
            runner = QueueRunner(policy=FixPolicy("relaxed"))
            run_rows = []
            for i, op in enumerate(script.ops):
                runner.apply(op)
                run_rows.append(runner.stats(i, op[0]).row())
            rows.append(run_rows)
        assert rows[0] == rows[1]


def test_differential_with_meld_split_heavy_mix():
    script = generate_script(13, 1500, MELD_SPLIT_HEAVY)
    for policy in (FixPolicy(), FixPolicy("relaxed")):
        verdict = run_differential(script, policy, audit="final")
        assert verdict.passed, str(verdict)
