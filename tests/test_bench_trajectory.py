"""``tools/bench_trajectory.py``: the committed bench records as one
table, one row per record."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_trajectory", REPO / "tools" / "bench_trajectory.py")
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def _entry(parent, change, pct, wins, n=10):
    return {"parent": {"median": parent}, "change": {"median": change,
                                                     "n": n},
            "change_pct": pct, "change_wins": wins}


def test_committed_records_one_row_each(capsys):
    records = bench_trajectory.load_records(REPO)
    numbers = sorted(int(path.stem.split("_")[1])
                     for path in REPO.glob("BENCH_*.json"))
    assert numbers and [n for n, _ in records] == numbers
    assert bench_trajectory.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + len(records)
    header = [text.strip() for text in lines[0].strip("|").split("|")]
    for line, (n, record) in zip(lines[2:], records):
        cells = [text.strip() for text in line.strip("|").split("|")]
        assert cells[0] == str(n)
        for column, text in zip(header[1:], cells[1:]):
            workload = column.rsplit(" ", 1)[0]
            entry = record["workloads"].get(workload, {}).get("wall_s")
            if entry is None:
                assert text == "-"
                continue
            assert text.startswith(
                f"{entry['parent']['median']:.3f} -> "
                f"{entry['change']['median']:.3f} "
                f"({entry['change_pct']:+.1f}%, "
                f"{entry['change_wins']}/{entry['change']['n']})"), (n, text)


def test_rows_sort_by_number_and_missing_workloads_dash(tmp_path):
    records = {
        100: {"workloads": {"a": {"wall_s": _entry(2.0, 1.0, -50.0, 9)}}},
        9: {"workloads": {"b": {"wall_s": _entry(1.0, 1.0, None, 0, 5)}}},
    }
    for n, record in records.items():
        (tmp_path / f"BENCH_{n}.json").write_text(json.dumps(record))
    (tmp_path / "BENCH_x.json").write_text("{}")  # not a record name
    lines = bench_trajectory.table(bench_trajectory.load_records(tmp_path))
    cells = [[text.strip() for text in line.strip("|").split("|")]
             for line in lines]
    assert cells[0] == ["PR", "a wall_s", "b wall_s"]
    assert cells[2] == ["9", "-", "1.000 -> 1.000 (n/a, 0/5)"]
    assert cells[3] == ["100", "2.000 -> 1.000 (-50.0%, 9/10)", "-"]


def test_no_records_exits_1(tmp_path, capsys):
    assert bench_trajectory.main(["--root", str(tmp_path)]) == 1
    assert "no BENCH_<n>.json" in capsys.readouterr().err
