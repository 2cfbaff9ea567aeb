"""Every CLI operation of the benchmark's workloads keeps its verdict: the ledger
(``tests/ledger.jsonl``, written by ``tests/ledger.py``) replayed in process."""

import time

import ledger


def test_every_workload_operation_keeps_its_ledger_row(tmp_path):
    recorded = ledger.read()
    start = time.perf_counter()
    replayed = ledger.replay(str(tmp_path))
    elapsed = time.perf_counter() - start
    assert len(recorded) == 164
    moved = ledger.differences(recorded, replayed)
    assert not moved, "rows that moved from the ledger:\n" + "\n".join(moved)
    assert elapsed <= 5.0


def _scaled(row: dict, factor: float) -> dict:
    # every weight of a weights table times factor; the header and n stay
    header, *lines = row["stdout"]
    return dict(row, stdout=[header, *([n, *(x * factor if isinstance(x, float) else x for x in rest)] for n, *rest in lines)])


def test_the_ledger_names_each_operation_that_moves():
    rows = {r["op"]: r for r in ledger.read()}
    report, table, gone = rows["desk 7: unitarity holo"], rows["desk 7: weights holo"], rows["desk 11: weights holo"]
    assert ledger.differences([report, table, gone], [report, _scaled(table, 1 + 1e-7)]) == ["desk 11: weights holo"]
    assert ledger.differences([report, table], [dict(report, exit=1), _scaled(table, 1 + 1e-5)]) == [
        "desk 7: unitarity holo",
        "desk 7: weights holo",
    ]
    flipped = dict(report, stdout=[[name, not flag, value] for name, flag, value in report["stdout"]])
    assert ledger.differences([report], [flipped]) == ["desk 7: unitarity holo"]
