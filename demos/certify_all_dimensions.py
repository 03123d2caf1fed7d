"""Sweep the proof certifier over m = 2..64 and summarize the reports.

Every inequality the convexity analysis rests on (endpoint identities,
monotonicity and convexity of the auxiliary functions g and f, uniqueness of
the inflection point, and the F(delta) > -1 bound on the right interval) is
re-checked as a closed form at its analytic worst point.  The full JSON report
for one dimension is shown at the end.  The script exits 1 if any dimension
fails.
"""

import json
import sys

from rfunc import certify_proof

failures = []
reports = {}
for m in range(2, 65):
    report = reports[m] = certify_proof(m)
    status = "ok" if report.overall else "FAIL"
    if not report.overall:
        failures.append(m)
    n_pass = sum(c.passed for c in report.checks)
    print(f"m = {m:3d}: {status}  ({n_pass}/{len(report.checks)} checks)")

print()
print("all dimensions certified" if not failures else f"failures at m = {failures}")
print()
print("full report for m = 5:")
print(json.dumps(reports[5].to_dict(), indent=2))

if failures:
    sys.exit(1)
