"""tools/bench_pair.py: the side description and the paired summaries it writes."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)


def run(**values):
    return {"correct": True, "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_summary_has_the_median_and_quartiles():
    got = bench_pair.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert got == {"runs": [5.0, 1.0, 3.0, 2.0, 4.0], "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pair.summary([1.0, 3.0])["median"] == 2.0


def test_compare_counts_pairs_won_in_the_better_direction():
    base = [run(wall_s=1.0, rows=10), run(wall_s=1.2, rows=10), run(wall_s=0.9, rows=12)]
    head = [run(wall_s=0.8, rows=11), run(wall_s=1.3, rows=10), run(wall_s=0.5, rows=11)]
    got = bench_pair.compare(base, head, {"wall_s": "lower", "rows": "higher"})
    assert got["wall_s"]["head_won"] == 2
    assert got["wall_s"]["median_change"] == pytest.approx(0.8 / 1.0 - 1)
    assert got["rows"]["head_won"] == 1  # a tie is not a win
    assert got["wall_s"]["base"]["runs"] == [1.0, 1.2, 0.9]


def test_describe_outside_a_git_checkout(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    got = bench_pair.describe(tmp_path)
    assert got["src_lines"] == 2
    assert got["commit"] is None and got["modified"] is None
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 3\n")
    assert bench_pair.describe(tmp_path)["src_sha256"] != got["src_sha256"]


def test_the_seed_reaches_perfbench_and_the_report(tmp_path, monkeypatch):
    sides = [tmp_path / "base", tmp_path / "head"]
    for side in sides:
        side.mkdir()
    (sides[1] / "BENCHMARK.json").write_text('{"end_to_end": [{"name": "wall_s", "better": "lower"}]}')
    seen = []

    def fake_run(argv, cwd, **kwargs):
        if argv[0] == "git":
            raise OSError("no git here")
        seen.append((Path(cwd).name, argv[argv.index("--seed") + 1]))
        line = '{"correct": true, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}'
        return bench_pair.subprocess.CompletedProcess(argv, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    argv = [str(sides[0]), str(sides[1]), "--label", "t", "--pairs", "2"]
    assert bench_pair.main([*argv, "--workload", "verify-n5", "--out", str(tmp_path)]) == 0
    # alternating pairs, each run given perfbench's default seed
    seed = str(bench_pair.DEFAULT_SEED)
    assert seen == [("base", seed), ("head", seed), ("head", seed), ("base", seed)]
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["seed"] == bench_pair.DEFAULT_SEED == 2024
    assert report["workloads"]["verify-n5"]["metrics"]["wall_s"]["head_won"] == 0
