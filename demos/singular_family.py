"""Build and certify the smallest singular family.

At kappa = 1/3 the two labels produced by the brick correspondence on the
(2,2) rectangle give Jack polynomials that every Dunkl operator kills, and
whose Jucys-Murphy eigenvalues recover the source tableau.  Run me with
`python3 demos/singular_family.py`.
"""

import json

from nsjack import family_context, isotype_of, singular_family
from nsjack.operators import dunkl

cert = singular_family(1, 2)
print(f"kappa = {cert.kappa0}, family size {len(cert.members)}\n")

fam = family_context(1, 2)
for member in fam.members:
    print("source:")
    print(member.pair.source)
    print(f"label: {member.label}")
    print(f"polynomial has {len(member.specialized.terms)} terms")
    for i in range(1, 5):
        assert dunkl(i, member.specialized, fam.kappa0).is_zero()
    print("all Dunkl images vanish")
    print(f"isotype recovered: {isotype_of(member.specialized) == member.pair.source}")
    print()

print("certificate document (first member, truncated):")
doc = cert.to_json()["members"][0]
doc["polynomial"] = doc["polynomial"][:3] + ["..."]
doc["dunkl_images"] = "all empty"
print(json.dumps(doc, indent=2))
