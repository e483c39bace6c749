import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def fold_bench():
    path = ROOT / "scripts" / "fold_bench.py"
    loader = importlib.util.spec_from_file_location("fold_bench", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def _write_run(out_dir, workload, seed, trace, metrics, attempted=10, failed=0,
               correct=True):
    run = out_dir / f"{workload}-seed{seed}-trace{trace}"
    run.mkdir(parents=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (run / "result.json").write_text(json.dumps({"result": result, "records": []}))


def test_fold_pairs_runs_by_workload_and_seed(fold_bench, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    walls = {"parent": [4.0, 2.0, 3.0, 5.0], "change": [1.0, 2.0, 1.5, 6.0]}
    for side, out in (("parent", parent), ("change", change)):
        for k, seed in enumerate((7, 8, 9, 10)):
            _write_run(out, "certify", seed, 0,
                       {"wall_s": (walls[side][k], "s"),
                        "sim.episodes_per_s": (100.0 + k, "1/s")},
                       failed=1 if side == "change" and seed == 9 else 0,
                       correct=not (side == "parent" and seed == 10))
    _write_run(change, "certify", 11, 0, {"wall_s": (0.1, "s"),
                                          "sim.episodes_per_s": (1.0, "1/s")})
    (parent / "not-a-run").mkdir()

    doc = fold_bench.fold(parent, change, "t", "c", "n")

    assert "change run ('certify', 0, 11) has no partner" in capsys.readouterr().err
    assert set(doc) == {"command", "machine", "quartiles", "title", "workloads"}
    assert set(doc["machine"]) == {"cpu", "cpus", "note", "numpy", "python"}
    section = doc["workloads"]["certify"]["end_to_end"]
    assert list(doc["workloads"]["certify"]) == ["end_to_end"]
    assert section["seeds"] == [7, 8, 9, 10] and section["pairs"] == 4
    assert section["attempted"] == {"parent": 40, "change": 40}
    assert section["failed"] == {"parent": 0, "change": 1}
    assert section["correct"] == {"parent": False, "change": True}
    wall = section["metrics"]["wall_s"]
    assert wall["better"] == "lower" and wall["unit"] == "s"
    # lower in pairs 7 and 9, a tie at 8, higher at 10
    assert wall["pairs_won_by_change"] == 2
    assert wall["parent"] == {"iqr": 1.5, "median": 3.5, "n": 4, "q1": 2.75,
                              "q3": 4.25}
    assert wall["change"]["median"] == 1.75
    # per pair, change - parent: -3, 0, -1.5, +1; sorted, the quartiles sit
    # at positions 0.75, 1.5 and 2.25 between them
    assert wall["change_minus_parent"] == {"iqr": 2.125, "median": -0.75, "n": 4,
                                           "q1": -1.875, "q3": 0.25}
    # a higher-is-better metric that ties in every pair wins none
    assert section["metrics"]["sim.episodes_per_s"]["pairs_won_by_change"] == 0


def test_fold_writes_sorted_json(fold_bench, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for out, value in ((parent, 2.0), (change, 1.0)):
        _write_run(out, "deep", 1, 1, {"dp.full_s": (value, "s")})
    output = tmp_path / "BENCH.json"
    assert fold_bench.main([str(parent), str(change), "--title", "x",
                            "--output", str(output)]) == 0
    text = output.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    traced = doc["workloads"]["deep"]["traced"]
    assert traced["metrics"]["dp.full_s"]["pairs_won_by_change"] == 1
    assert traced["metrics"]["dp.full_s"]["change_minus_parent"] == {
        "iqr": 0.0, "median": -1.0, "n": 1, "q1": -1.0, "q3": -1.0}
    # without --command, the document says how runs are made
    assert doc["command"] == (
        "python3 perfbench/run.py --workload W --seed N --seconds 20 --trace 0|1, "
        "parent and change from two clean checkouts, alternating which side runs "
        "first in each pair")
