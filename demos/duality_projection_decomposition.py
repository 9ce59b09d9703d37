"""Tour of the structural identities tying the four bases together.

* duality: pairing a dual QS element against a Schur-like S element
  through their M and H expansions gives the Kronecker delta;
* projection: sending each H word to the h of its sorted parts carries
  S[alpha] to the k-Schur function of the sorted index;
* decomposition: the dual k-Schur function of a partition is the sum of
  the dual QS elements over all rearrangements of its parts.

Run:  python3 demos/duality_projection_decomposition.py
"""

from kschur import (
    build_kschur_system,
    build_schur_system,
    chi_project,
    pairing,
    sort_to_partition,
)
from kschur.bases import monomial_to_M

n, k = 4, 3
system = build_schur_system(n, k)
pside = build_kschur_system(n, k)

print(f"labels at n={n}, k={k}:", [list(a) for a in system.labels])

alpha = (2, 2)
print(f"\nQS{list(alpha)} in the monomial basis:")
for index, coeff in system.expand("QS", alpha, "M").terms():
    print(f"  {coeff}*M{list(index)}")

print("\npairings <QS[2,2], S[beta]>:")
qs = system.expand("QS", alpha, "M")
for beta in system.labels:
    value = pairing(qs, system.expand("S", beta, "H"))
    print(f"  beta={list(beta)}: {value}")

print("\nprojection chi(S[alpha]) versus the k-Schur function:")
for a in system.labels:
    image = chi_project(system.expand("S", a, "H"))
    expected = pside.expand("s", sort_to_partition(a), "h")
    print(f"  alpha={list(a)}: chi(S) == s^(k)_{list(sort_to_partition(a))}? {image == expected}")

lam = (2, 1, 1)
print(f"\ndecomposition of the dual k-Schur function at lambda={list(lam)}:")
total = None
for a in system.labels:
    if sort_to_partition(a) == lam:
        piece = system.expand("QS", a, "M")
        total = piece if total is None else total + piece
        print(f"  + QS{list(a)}")
dual = pside.expand("dual-s", lam, "m")
print("  sum equals dual-s in M coordinates?", total == monomial_to_M(dual))
