"""Render the word-0^n-1 pictures as SVG files, through ``numrange figure``.

Blue dots: boundary points of a deep truncation range (their hull
approximates the range closure).  Red and green curves: the numerical
ranges of the two conjecture matrices.  For n = 1 the curves are circles,
for n = 2 ellipses, for n = 3 general convex ovals.
"""

from numrange.cli import main

for n in (1, 2, 3):
    out = f"figure_n{n}.svg"
    if main(["figure", "--n", str(n), "--out", out]) != 0:
        raise SystemExit(f"figure --n {n} failed")
    print(f"n={n}: wrote {out} (word {'0' * n + '1'})")
