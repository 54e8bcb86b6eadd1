"""Desk-scale evidence for the two-matrix hull conjecture.

For the period word 0^n 1 the claim is that the range closure equals the
hull of the numerical ranges of just two (n+1)-square matrices: the
superdiagonal-ones matrix plus/minus the corner pair, which are the
(n+1)-square truncations of two period-(n+1) specs.  It is a theorem for
n = 1; here we measure the Hausdorff gap numerically for n up to 4, plus a
negative control showing the metric is not vacuously small.
"""

import numpy as np

from numrange import (
    PeriodSpec,
    SweepConfig,
    check_range_negation_symmetry,
    conjecture_specs,
    convex_hull,
    hausdorff,
    stadium_region,
    symbol_union_hull,
    truncation_range,
)

cfg = SweepConfig(num_theta=720, num_phi=720)

print(f"{'n':>3} {'word':>8} {'hausdorff gap':>16} {'negation symmetry':>20}")
for n in range(1, 5):
    word = "0" * n + "1"
    hull = symbol_union_hull(PeriodSpec.from_word(word), cfg)
    plus, minus = (truncation_range(spec, n + 1, cfg) for spec in conjecture_specs(n))
    pair = convex_hull(np.concatenate([plus.vertices, minus.vertices]))
    sym = check_range_negation_symmetry(n, plus, minus, cfg)
    print(f"{n:>3} {word:>8} {hausdorff(hull, pair):>16.3e} {sym.metric:>20.3e}")

control = hausdorff(
    symbol_union_hull(PeriodSpec.from_word("11"), cfg), stadium_region(720)
)
print(f"\nnegative control — word 11 vs the stadium: {control:.3f} (far from zero)")
