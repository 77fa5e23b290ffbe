"""Walk through the brick correspondence on a small example.

Every reverse standard Young tableau of the two-row rectangle maps to a label
(composition, stacked tableau) satisfying the content identity
(m+2) * beta_i + content(rank(i)) = content(i, source).  Run me with
`python3 demos/brick_correspondence.py`.
"""

from fractions import Fraction

from nsjack import brick_map, enumerate_rsyt, max_inv_source, spectral_vector_at

m, k = 2, 2
print(f"two-row rectangle with {m * k} columns, bricks of width {m}\n")

for source in enumerate_rsyt((m * k, m * k)):
    pair = brick_map(source, m)
    print(source)
    print(f"  beta = {pair.beta}")
    print("  stacked tableau:")
    for row in pair.tableau.rows:
        print("   ", row)
    zeta = spectral_vector_at(pair.beta, pair.tableau, Fraction(1, m + 2))
    print(f"  spectral vector at 1/{m + 2} = {tuple(int(z) for z in zeta)}")
    print(f"  source contents            = {source.content_vector()}")
    assert zeta == tuple(map(Fraction, source.content_vector()))
    print()

print("the column filling maps to the layer composition and the brick stack:")
pair0 = brick_map(max_inv_source(m, k), m)
# entry slot i lies in brick layer k - 1 - (i // 2m), and level l of the
# stack holds 2m(k - l) down to 2m(k - l - 1) + 1, filled column by column
assert pair0.beta == tuple(k - 1 - i // (2 * m) for i in range(2 * m * k))
assert pair0.tableau.rows == tuple(
    tuple(2 * m * (k - level) - r - 2 * j for j in range(m))
    for level in range(k)
    for r in (0, 1)
)
print(f"  {pair0.beta}")
