"""Compare certify_proof reports, find_inflection and the delta functions with another commit.

    python tools/compare_reports.py BASE [--m SPEC]

BASE is a git revision.  The tool checks it out in a temporary ``git
worktree`` and runs one Python child per tree, BASE's and this checkout's,
with ``PYTHONPATH=<tree>/src`` and this directory.  For each m a child prints
``line(m)``, one JSON line: the ``json.dumps`` of ``certify_proof(m).to_dict()``
(or the ``DomainError`` it raises), of ``find_inflection(m)``'s three fields,
and of ``c_value``, ``a_value``, ``b_value`` and ``big_f_value`` at each delta
of ``DELTAS`` and once on the array of them (as a list).  Every field whose
JSON text differs between the trees is printed as ``m check field base head``,
tab-separated; a delta value as ``m delta <function>(<delta>) base head``.
The exit code is 0 when nothing differs, 1 when something does and 2 on a
usage error or when a tree cannot be run.  The worktree is always removed.

SPEC is a comma-separated list whose items are an integer (``10**6`` is
allowed) or a range ``lo..hi`` with hi >= lo.  The default covers 2..5000,
10**k for k = 4..300, 2**40 - 1, 2**40, 2**33 + 7, 2**53 - 1 and 2**53.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
HEAD = TOOLS.parent
DEFAULT_M = (list(range(2, 5001)) + [10**k for k in range(4, 301)]
             + [2**40 - 1, 2**40, 2**33 + 7, 2**53 - 1, 2**53])
DELTAS = [0.0, 0.25, 0.5, 1.0 - 2.0**-20]


def line(m) -> str:
    """The JSON line a child prints for m, from the rfunc on its path; a value json
    cannot encode, such as an np.bool_, is a ``"<not JSON: ...>"`` text."""
    import numpy as np
    from rfunc import (DomainError, a_value, b_value, big_f_value, c_value, certify_proof,
                       find_inflection)

    def value(fn, *args):  # an array as a list, a DomainError as its text
        try:
            v = fn(*args)
        except DomainError as exc:
            return f"DomainError: {exc}"
        return v.tolist() if isinstance(v, np.ndarray) else v

    report = value(lambda: certify_proof(m).to_dict())
    res = find_inflection(m)
    inflection = {"lambda0": res.lambda0, "iterations": res.iterations, "residual": res.residual}
    deltas = {**{repr(d): d for d in DELTAS}, "array": np.array(DELTAS)}
    delta = {f"{fn.__name__}({key})": value(fn, d, m)
             for fn in (c_value, a_value, b_value, big_f_value) for key, d in deltas.items()}
    return json.dumps({"m": m, "report": report, "inflection": inflection, "delta": delta},
                      default=lambda v: f"<not JSON: {type(v).__name__} {v!r}>")


def differences(base: dict, head: dict) -> list[tuple]:
    """(m, check, field, base, head) for each field whose JSON text differs.

    ``base`` and ``head`` are one child line each, decoded, for the same m:
    {"m", "report", "inflection", "delta"}.  Rows are matched by name; a row on one
    side only differs in its field "row".  Values are compared as JSON text,
    so 1 and 1.0 differ; lines with the same JSON text are not taken apart.
    """
    m, out, whole = base["m"], [], (json.dumps(base), json.dumps(head))
    if whole[0] == whole[1]:
        return out

    def note(check, field, b, h):
        b, h = json.dumps(b), json.dumps(h)
        if b != h:
            out.append((m, check, field, b, h))

    b_rep, h_rep = base["report"], head["report"]
    if isinstance(b_rep, dict) and isinstance(h_rep, dict):
        b_rows = {c["name"]: c for c in b_rep["checks"]}
        h_rows = {c["name"]: c for c in h_rep["checks"]}
        for name in {**b_rows, **h_rows}:
            b_row, h_row = b_rows.get(name), h_rows.get(name)
            if b_row is None or h_row is None:
                note(name, "row", b_row, h_row)
                continue
            for field in {**b_row, **h_row}:
                note(name, field, b_row.get(field), h_row.get(field))
        note("certify_proof", "order", list(b_rows), list(h_rows))
        for field in ("m", "overall"):
            note("certify_proof", field, b_rep.get(field), h_rep.get(field))
    else:  # a DomainError's text on one side or both
        note("certify_proof", "report", b_rep, h_rep)
    for field in ("lambda0", "iterations", "residual"):
        note("find_inflection", field, base["inflection"].get(field), head["inflection"].get(field))
    for key, b in base["delta"].items():
        note("delta", key, b, head["delta"].get(key))
    if not out:  # the same fields, but not the same bytes (say, in another key order)
        out.append((m, "*", "json", *whole))
    return out


def run_tree(tree: Path, ms: list[int]) -> list[dict]:
    """Each m's decoded ``line(m)``, from rfunc as ``tree/src`` holds it."""
    src = tree / "src"
    child = "import json, sys, compare_reports\nfor m in json.load(sys.stdin): print(compare_reports.line(m))"
    done = subprocess.run([sys.executable, "-c", child], input=json.dumps(ms), cwd=src,
                          env=dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{TOOLS}"),
                          capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or len(lines) != len(ms):
        sys.stderr.write(f"{done.stderr}{tree}: the child exited {done.returncode}"
                         f" after {len(lines)} of {len(ms)} m\n")
        raise SystemExit(2)
    return [json.loads(text) for text in lines]


def parse_spec(text: str) -> list[int]:
    def integer(item):
        base, _, exp = item.strip().partition("**")
        return int(base) ** int(exp) if exp else int(base)

    ms = []
    for item in text.split(","):
        lo, _, hi = item.partition("..")
        first, last = integer(lo), integer(hi or lo)
        if last < first:  # an empty range is a typo: argparse exits 2
            raise ValueError(f"{item.strip()} ends below its start")
        ms.extend(range(first, last + 1))
    return ms


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="the git revision to compare with")
    p.add_argument("--m", type=parse_spec, default=DEFAULT_M, help="e.g. 2..5000,10**6")
    args = p.parse_args(argv)
    git = ["git", "-C", str(HEAD), "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        try:
            if subprocess.run(git + ["add", "--detach", "--quiet", str(tree), args.base]).returncode:
                return 2  # git has said why
            base_docs = run_tree(tree, args.m)
        finally:
            if subprocess.run(git + ["remove", "--force", str(tree)], capture_output=True).returncode:
                subprocess.run(git + ["prune"])
    head_docs = run_tree(HEAD, args.m)
    diffs = [d for b, h in zip(base_docs, head_docs) for d in differences(b, h)]
    for row in diffs:
        print("\t".join(map(str, row)))
    print(f"{len(args.m)} m compared with {args.base}: {len(diffs)} differing fields", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
