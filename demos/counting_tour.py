"""Tour: exact counting functions next to their analytic bounds.

Run with: python3 demos/counting_tour.py
"""

from braidcount import (
    bound_tuples_total,
    bound_words,
    count_tuples,
    count_tuples_j,
    count_words,
    threshold_from_y,
)

print("Degree tuples with weight product below X, by tuple length:")
print(f"  {'X':>7} {'len 1':>7} {'len 2':>7} {'len 3':>7} {'total':>8} {'bound':>12}")
for x in (3, 9, 27, 81, 243, 3**7, 3**9):
    row = [count_tuples_j(j, x) for j in (1, 2, 3)]
    total = count_tuples(x)
    bound = float(bound_tuples_total(x))
    print(f"  {x:>7} {row[0]:>7} {row[1]:>7} {row[2]:>7} {total:>8} {bound:>12.2f}")

print()
print("Reduced words with weight below X, against the cubic ceiling:")
print(f"  {'X':>7} {'exact':>10} {'X^3/2':>14} {'chain':>12}")
for x in (3, 9, 27, 243, 3**7, 3**9, 3**10):
    n = count_words(x)
    chain = bound_words(x)
    print(f"  {x:>7} {n:>10} {str(chain.cube_half):>14} {chain.chain_value:>12}")

print()
print("Thresholds X = floor(exp(Y)) are certified exactly from Y:")
for y in ("log(3)", "2", "pi", "600*log(8)"):
    x = threshold_from_y(y)
    shown = str(x) if x < 10**12 else f"~10^{len(str(x)) - 1}"
    print(f"  Y = {y:12} -> X = {shown}")

print()
print("count_words accepts a workers argument that has no effect; every")
print("count runs in one process and returns the same integer.")
print(f"  count_words(59049, workers=1) = {count_words(59049, workers=1)}")
print(f"  count_words(59049, workers=8) = {count_words(59049, workers=8)}")
