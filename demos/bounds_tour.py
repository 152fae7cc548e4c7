"""Tour: syllable weights and the invariant bound intervals.

Run with: python3 demos/bounds_tour.py
"""

from braidcount import (
    entropy_bounds,
    evaluate,
    extremal_length_bounds_braid,
    extremal_length_bounds_word,
    parse_braid,
    parse_word,
    syllable_decompose,
)

print("A reduced word splits uniquely into syllables:")
for text in ("a1^3", "a1 a2", "a1 a2^-1", "a1^2 a2 a1 a2^-1 a1^-1 a2^3"):
    deco = syllable_decompose(parse_word(text))
    parts = ", ".join(f"{s.kind}/{s.degree}" for s in deco)
    print(f"  {text!r:34} -> {parts}")

print()
print("Syllable degrees give exact lower/upper bounds for extremal length:")
for text in ("a1", "a1 a2", "a1^2 a2^2", "a1^4 a2^-4 a1^4 a2^-4"):
    iv = extremal_length_bounds_word(parse_word(text))
    print(f"  {text!r:24} -> {iv}")

print()
print("The same intervals attach to braid words through the projection:")
for text in ("D^2", "s1^4", "s1^2 s2^2", "s1^6 s2^-6"):
    iv = extremal_length_bounds_braid(evaluate(parse_braid(text)))
    print(f"  {text!r:16} -> {iv}")

print()
print("For cyclically syllable-reduced words the entropy window follows:")
w = parse_word("a1^2 a2^2")
print(f"  extremal length of {w}: {extremal_length_bounds_word(w)}")
print(f"  entropy of {w}:         {entropy_bounds(w)}")
print()
print("Endpoints are computed at 128 bits and rounded outward, so every")
print("printed interval encloses the exact value.")
