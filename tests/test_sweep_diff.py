"""tests/sweep_diff.py on two small synthetic sweeps."""

import json

import sweep_diff


def _write(path, reports):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in reports))
    return str(path)


def test_sweep_diff_counts_transitions_and_lists_each_difference(tmp_path, capsys):
    old = [
        {"check": "a", "instance": "g6:A_", "outcome": "pass", "millis": 1.0},
        {"check": "a", "instance": "g6:B_", "outcome": "pass", "millis": 2.0},
        {"check": "b", "instance": "x", "outcome": "fail", "witness": {"k": 1}, "millis": 3.0},
        {"check": "c", "instance": "gone", "outcome": "pass", "millis": 4.0},
    ]
    new = [
        {"check": "a", "instance": "g6:A_", "outcome": "vacuous", "millis": 5.0},
        {"check": "a", "instance": "g6:B_", "outcome": "pass", "millis": 6.0},
        {"check": "b", "instance": "x", "outcome": "fail", "witness": {"k": 2}, "millis": 7.0},
    ]
    paths = [_write(tmp_path / "old.ndjson", old), _write(tmp_path / "new.ndjson", new)]
    assert sweep_diff.main(paths) == 1
    assert capsys.readouterr().out.splitlines() == [
        "       1  a: pass -> vacuous",
        "       1  b: fail -> fail",
        "       1  c: pass -> absent",
        'a g6:A_: {"outcome": "pass"} -> {"outcome": "vacuous"}',
        'b x: {"outcome": "fail", "witness": {"k": 1}} -> {"outcome": "fail", "witness": {"k": 2}}',
        'c gone: {"outcome": "pass"} -> absent',
        "3 (check, instance) keys differ",
    ]
    # millis alone is no difference
    same = _write(tmp_path / "same.ndjson", [dict(r, millis=0.0) for r in new[::-1]])
    assert sweep_diff.main([paths[1], same]) == 0
    assert capsys.readouterr().out == "0 (check, instance) keys differ\n"
