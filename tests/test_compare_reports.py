"""The line and the comparison behind tools/compare_reports.py, and one child, without git."""

import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import rfunc

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
_SPEC = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)


@pytest.fixture
def base():
    return json.loads(compare_reports.line(5))


def test_identical_lines_do_not_differ(base):
    assert compare_reports.differences(base, copy.deepcopy(base)) == []


def test_a_moved_measured_differs(base):
    head = copy.deepcopy(base)
    row = head["report"]["checks"][0]
    row["measured"] = np.nextafter(row["measured"], 1.0)
    assert compare_reports.differences(base, head) == [
        (5, row["name"], "measured", json.dumps(base["report"]["checks"][0]["measured"]),
         json.dumps(row["measured"]))]


def test_a_flipped_pass_differs(base):
    head = copy.deepcopy(base)
    head["report"]["checks"][3]["pass"] = False
    name = head["report"]["checks"][3]["name"]
    assert compare_reports.differences(base, head) == [(5, name, "pass", "true", "false")]


def test_an_added_row_differs(base):
    head = copy.deepcopy(base)
    extra = dict(head["report"]["checks"][0], name="extra")
    head["report"]["checks"].append(extra)
    got = compare_reports.differences(base, head)
    assert (5, "extra", "row", "null", json.dumps(extra)) in got
    assert [d[1:3] for d in got] == [("extra", "row"), ("certify_proof", "order")]


def test_an_np_bool_pass_differs(base, monkeypatch):
    # np.True_ == True, but json.dumps cannot encode it: the line holds its text
    report = rfunc.certify_proof(5)
    doc = report.to_dict()
    doc["checks"][0]["pass"] = np.bool_(doc["checks"][0]["pass"])
    monkeypatch.setattr(type(report), "to_dict", lambda self: doc)
    head = json.loads(compare_reports.line(5))
    [(m, _, field, was, now)] = compare_reports.differences(base, head)
    assert (m, field, was) == (5, "pass", "true") and now.startswith('"<not JSON: ')


def test_a_moved_delta_value_differs(base):
    head = copy.deepcopy(base)
    key = "big_f_value(0.25)"
    head["delta"][key] = np.nextafter(head["delta"][key], 0.0)
    assert compare_reports.differences(base, head) == [
        (5, "delta", key, json.dumps(base["delta"][key]), json.dumps(head["delta"][key]))]


def test_a_moved_inflection_and_an_error_differ(base):
    head = copy.deepcopy(base)
    head["inflection"]["iterations"] += 1
    head["report"] = "DomainError: refused"
    got = {d[1:3] for d in compare_reports.differences(base, head)}
    assert got == {("certify_proof", "report"), ("find_inflection", "iterations")}


def test_another_key_order_differs(base):
    head = dict(reversed(list(base.items())))
    assert compare_reports.differences(base, head) == [
        (5, "*", "json", json.dumps(base), json.dumps(head))]


def test_spec():
    assert compare_reports.parse_spec("2..4,10**3, 7, 9..9") == [2, 3, 4, 1000, 7, 9]
    with pytest.raises(ValueError, match="5..2 ends below its start"):
        compare_reports.parse_spec("2..4,5..2")


def test_a_descending_range_is_a_usage_error(monkeypatch, capsys):
    # "5..2" selects no m: argparse exits 2 before any git call, so no worktree
    calls = []
    monkeypatch.setattr(compare_reports.subprocess, "run", lambda *args, **kw: calls.append(args))
    with pytest.raises(SystemExit) as exc:
        compare_reports.main(["HEAD", "--m", "5..2"])
    assert exc.value.code == 2 and calls == []
    assert capsys.readouterr().out == ""


def test_a_child_prints_the_line():
    # a real child on this checkout's tree; 2**53 + 1 is past the certifier's cap
    ms = [2, 5, 10**6, 2**53 + 1]
    got = compare_reports.run_tree(compare_reports.HEAD, ms)
    assert got == [json.loads(compare_reports.line(m)) for m in ms]
    assert got[-1]["report"].startswith("DomainError: ")
