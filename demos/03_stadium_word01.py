"""Period word 01: the range closure is a stadium.

The symbol at twist angle phi is a 2x2 matrix whose numerical range is an
ellipse with foci +-sqrt(1 + e^{i phi}).  Sweeping phi and taking the
convex hull fills the stadium spanned by the two radius-1/2 disks at -1
and 1 — which is also the hull of the ranges of just two 2x2 matrices.
This script assembles all three descriptions and compares them.
"""

import numpy as np

from numrange import (
    PeriodSpec,
    SweepConfig,
    conjecture_specs,
    convex_hull,
    symbol_ellipse,
    hausdorff,
    polygon_to_csv,
    stadium_region,
    support_width,
    symbol_union_hull,
    truncation_range,
)

cfg = SweepConfig(num_theta=720, num_phi=720)
spec = PeriodSpec.from_word("01")

for phi in (0.0, np.pi / 2, 2 * np.pi / 3, np.pi):
    params = symbol_ellipse(phi)
    print(
        f"phi = {phi:.3f}: ellipse axes {params.major_len:.3f} x {params.minor_len:.3f},"
        f" tilt {params.rotation:+.3f}"
    )

hull = symbol_union_hull(spec, cfg)
stadium = stadium_region(720)
plus, minus = (truncation_range(pair_spec, 2, cfg) for pair_spec in conjecture_specs(1))
pair = convex_hull(np.concatenate([plus.vertices, minus.vertices]))

print(f"\nsymbol-union hull vs analytic stadium:   {hausdorff(hull, stadium):.2e}")
print(f"stadium vs hull of the two 2x2 ranges:   {hausdorff(stadium, pair):.2e}")
print(f"support widths of the hull: {support_width(hull, 0.0):.6f} (flat: 1.5), "
      f"{support_width(hull, np.pi / 2):.6f} (flat: 0.5)")

trunc = truncation_range(spec, 200, cfg)
print(f"200x200 truncation range vs hull:        {hausdorff(trunc, hull):.2e}")

polygon_to_csv(hull, "stadium_hull.csv")
print("\nwrote stadium_hull.csv")
