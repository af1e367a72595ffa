import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()


def test_bench_pairs_refuses_roots_whose_paths_differ_in_length(tmp_path, monkeypatch, capsys):
    # peak_rss_mb moves with the path alone: no run is started
    started = []
    monkeypatch.setattr(bench_pairs, "_run", lambda *a: started.append(a))
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    assert bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "bb")]) == 2
    assert "path length" in capsys.readouterr().err
    assert started == []


def test_bench_pairs_counts_wins_in_the_declared_direction():
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower"},
               {"name": "cases", "unit": "count", "better": "higher"}]
    pairs = [({"wall_s": b, "cases": 10}, {"wall_s": c, "cases": k})
             for b, c, k in ((1.0, 0.9, 11), (1.0, 1.1, 10), (2.0, 1.0, 9), (1.5, 1.5, 12))]
    (wall, cases) = bench_pairs.pair_rows(metrics, pairs)
    assert wall[0] == "wall_s" and wall[4:] == (2, 4)
    assert wall[2][0] == 1.25 and wall[3][0] == 1.05  # the medians
    assert cases[4:] == (2, 4)  # a tie is no win


def test_bench_pairs_alternates_the_side_that_runs_first(tmp_path, monkeypatch, capsys):
    roots = [tmp_path / "a", tmp_path / "b"]
    for root in roots:
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("")
    (roots[0] / "BENCHMARK.json").write_text(
        '{"workloads": [{"name": "w"}], "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"}]}')
    order = []

    def fake(root, workload, seed, seconds):
        order.append(root.name)
        return {"wall_s": 1.0 if root.name == "a" else 0.5}

    monkeypatch.setattr(bench_pairs, "_run", fake)
    assert bench_pairs.main([str(r) for r in roots] + ["--pairs", "3"]) == 0
    assert order == ["a", "b", "b", "a", "a", "b"]
    assert "| w | wall_s (s) | 1 [1, 1] | 0.5 [0.5, 0.5] | 3/3 |" in capsys.readouterr().out
