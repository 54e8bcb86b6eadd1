"""Self-adjoint case: the numerical-range closure is an interval.

For a self-adjoint periodic tridiagonal operator the closure of the
numerical range is [min over phi of the smallest symbol eigenvalue,
max over phi of the largest], each attained at a twist phi known in
closed form.  Deep truncations approach the same
endpoints from inside; the classic example here has endpoints -2 and 2
while the k-th truncation reaches only 2*cos(pi/(k+1)).
"""

import numpy as np

from numrange import PeriodSpec, build_truncation, selfadjoint_interval

spec = PeriodSpec(a=1, b=0, c=1, p=2)
lo, hi = selfadjoint_interval(spec)
print(f"symbol interval: [{lo:+.12f}, {hi:+.12f}]")

print("\ntruncation extremes climb toward the endpoints:")
print(f"{'k':>5} {'min eig':>16} {'max eig':>16} {'2cos(pi/(k+1))':>16}")
for k in (5, 20, 80, 400):
    eigs = np.linalg.eigvalsh(build_truncation(spec, k))
    print(f"{k:>5} {eigs[0]:>16.10f} {eigs[-1]:>16.10f} {2 * np.cos(np.pi / (k + 1)):>16.10f}")

gap = 2.0 - 2 * np.cos(np.pi / 401)
print(f"\nremaining gap at k=400: {gap:.2e} (the symbol endpoints are exact)")
