"""CLI: subcommands end to end, exact CSV columns, exit codes."""

import pytest

from triheap.cli import main, run_sort
from triheap.forest import FixPolicy
from triheap.oracle import Verdict
from triheap.workload import format_script, generate_script


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSort:

    def test_small(self, tmp_path, capsys):
        inp = tmp_path / "keys.txt"
        inp.write_text("3 1 2\n")
        code, out, _ = run_cli(capsys, "sort", str(inp), "--stats", "none")
        assert code == 0
        assert out == "1\n2\n3\n"

    def test_empty_input(self, tmp_path, capsys):
        inp = tmp_path / "keys.txt"
        inp.write_text("")
        code, out, _ = run_cli(capsys, "sort", str(inp), "--stats", "none")
        assert code == 0
        assert out == ""

    def test_stats_columns_exact(self, tmp_path, capsys):
        inp = tmp_path / "keys.txt"
        inp.write_text("5 3 9\n")
        stats = tmp_path / "stats.csv"
        code, out, _ = run_cli(capsys, "sort", str(inp), "--stats", str(stats))
        assert code == 0
        lines = stats.read_text().splitlines()
        assert lines[0] == ("op_index,op,n,phi,rearrangements,comparisons,"
                            "max_digit,tree_count")
        assert len(lines) == 1 + 6
        assert lines[3] == "2,i,3,1,1,2,1,1"

    def test_stats_to_stderr_by_default(self, tmp_path, capsys):
        inp = tmp_path / "keys.txt"
        inp.write_text("2 1\n")
        code, out, err = run_cli(capsys, "sort", str(inp))
        assert code == 0
        assert out == "1\n2\n"
        assert err.startswith("op_index,op,")

    def test_bad_key_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "keys.txt"
        inp.write_text("3 x 2\n")
        code, _, err = run_cli(capsys, "sort", str(inp), "--stats", "none")
        assert code == 2
        assert "error" in err

    def test_usage_error_leaves_the_stats_file(self, tmp_path, capsys):
        inp = tmp_path / "keys.txt"
        inp.write_text("3 1 2\n")
        stats = tmp_path / "stats.csv"
        stats.write_text("earlier run\n")
        code, out, err = run_cli(capsys, "sort", str(inp), "--stats",
                                 str(stats), "--relaxed-budget", "0")
        assert code == 2
        assert out == "" and "relaxed_budget must be >= 1" in err
        assert stats.read_text() == "earlier run\n"

    def test_run_sort_large_matches_sorted(self):
        import random
        rng = random.Random(5)
        keys = [rng.getrandbits(32) for _ in range(20_000)]
        out, final = run_sort(keys, FixPolicy("relaxed"))
        assert out == sorted(keys)
        assert final.n == 0

    @pytest.mark.parametrize("mode, comparisons",
                             [("eager", 323_284), ("relaxed", 442_432)])
    def test_run_sort_comparisons_are_pinned(self, mode, comparisons,
                                             monkeypatch):
        """Inserts, carries and delete-mins leave most heights stale, so
        most delete-min scans read every root; the rest read fewer."""
        import random
        import triheap.cli
        queues = []

        class Runner(triheap.cli.QueueRunner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                queues.append(self.queue)

        monkeypatch.setattr(triheap.cli, "QueueRunner", Runner)
        rng = random.Random(2012)
        keys = [rng.getrandbits(32) for _ in range(10_000)]
        out, final = run_sort(keys, FixPolicy(mode))
        assert out == sorted(keys)
        (queue,) = queues
        assert queue.comparator.count == final.comparisons == comparisons


class TestCounter:

    def test_three_increments(self, capsys):
        code, out, _ = run_cli(capsys, "counter", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,carries,digits"
        assert lines[1] == "1,0,1"
        assert lines[2] == "2,0,2"
        assert lines[3] == "3,1,0 1"

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "counter", "2", "--format", "table")
        assert code == 0
        assert "step" in out.splitlines()[0]

    def test_relaxed_policy(self, capsys):
        code, out, _ = run_cli(capsys, "counter", "9", "--policy", "relaxed")
        assert code == 0
        last = out.splitlines()[-1].split(",")
        digits = [int(d) for d in last[2].split()]
        assert sum(d * (2 ** (h + 1) - 1) for h, d in enumerate(digits)) == 9
        assert max(digits) <= 4

    def test_zero_relaxed_budget_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "counter", "3", "--relaxed-budget",
                                 "0")
        assert code == 2
        assert out == "" and "relaxed_budget must be >= 1" in err


class TestVerify:

    def test_passing_script(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text(format_script(generate_script(6, 800)))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert "pass" in out

    def test_divergence_exits_1(self, tmp_path, capsys, monkeypatch):
        import triheap.cli as cli
        monkeypatch.setattr(cli, "run_differential",
                            lambda *a, **k: Verdict(False, 3,
                                                    failures=["boom"]))
        path = tmp_path / "w.txt"
        path.write_text("i 1\n")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert "boom" in err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("dk 0 5\n")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "/nonexistent/w.txt")
        assert code == 2


class TestDot:

    def test_insert_example(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("i 5\ni 3\ni 9\n")
        code, out, _ = run_cli(capsys, "dot", str(path))
        assert code == 0
        assert out.count("label=\"") >= 3
        assert 'label="height 1"' in out
        assert out.count(" -> ") == 2
        assert "digraph" in out

    def test_empty_state(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("i 5\n")
        code, out, _ = run_cli(capsys, "dot", str(path), "--at", "0")
        assert code == 0
        assert " -> " not in out
        assert "label=\"5\"" not in out

    def test_node_count_matches_n(self, tmp_path, capsys):
        script = generate_script(9, 200)
        path = tmp_path / "w.txt"
        path.write_text(format_script(script))
        code, out, _ = run_cli(capsys, "dot", str(path))
        assert code == 0
        from triheap.workload import QueueRunner
        runner = QueueRunner()
        for op in script.ops:
            runner.apply(op)
        labels = [line for line in out.splitlines() if "[label=" in line
                  and "height" not in line]
        assert len(labels) == len(runner.queue)

    def test_out_of_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("i 5\n")
        code, _, _ = run_cli(capsys, "dot", str(path), "--at", "5")
        assert code == 2


class TestBench:

    def test_small_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "bench", "50", "--seed", "3")
        assert code == 0
        code, out2, _ = run_cli(capsys, "bench", "50", "--seed", "3")
        assert out1 == out2
        assert "# bench n=50 workload=sort" in out1
        assert "# bench n=50 workload=mixed" in out1

    def test_single_element_delete_needs_no_comparisons(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "1")
        assert code == 0
        rows = [line for line in out.splitlines()
                if line and not line.startswith("#")
                and not line.startswith("op_index")]
        insert_row, delete_row = rows[0].split(","), rows[1].split(",")
        assert int(delete_row[5]) - int(insert_row[5]) == 0

    def test_tree_count_bound_at_power_sizes(self, capsys):
        for n in (7, 31, 127):
            code, out, _ = run_cli(capsys, "bench", str(n))
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()
                    if line and not line.startswith("#")
                    and not line.startswith("op_index")]
            last_insert = rows[n - 1]
            assert last_insert[1] == "i"
            assert int(last_insert[7]) <= 2 * (n + 1).bit_length() - 2

    def test_negative_size_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "bench", "5", "-5")
        assert code == 2
        assert out == "" and "error" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sort", "--policy", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sort", "--audit", "final"],
    ["counter", "3", "--seed", "1"],
    ["verify", "-", "--format", "table"],
    ["dot", "-", "--format", "csv"],
    ["bench", "5", "--audit", "always"],
], ids=" ".join)
def test_a_flag_the_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
