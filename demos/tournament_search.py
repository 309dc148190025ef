"""
Enumerating and sampling tournaments
====================================

Exhaustive enumeration of regular tournaments runs out of room fast, so
the toolkit pairs it with a degree-preserving sampler and uses both to
probe containment and tiling questions over whole corpora.
"""

from math import factorial

from oriograph import oracles
from oriograph.generators import d_abc, graph_s
from oriograph.search import (
    canonical_form,
    enumerate_regular_tournaments,
    random_semi_regular,
    tileability_probe,
    turanability_probe,
)

# Up to isomorphism there are 1, 1, 3 regular tournaments on 3, 5, 7
# vertices.  The labeled counts give an independent cross-check: a class
# with automorphism group Aut holds n!/|Aut| labeled tournaments, so the
# classes found must add up to all of them.
for n in (3, 5, 7):
    reps = enumerate_regular_tournaments(n)
    labeled = oracles.labeled_regular_tournaments(n)
    print(f"n={n}: {len(reps)} classes, {labeled} labeled tournaments")
    assert sum(factorial(n) // oracles.automorphisms(g) for g in reps) == labeled

# Canonical forms separate the three classes on 7 vertices.
forms = {canonical_form(g) for g in enumerate_regular_tournaments(7)}
print("distinct canonical forms at n=7:", len(forms))

# Beyond n=11 we sample: triangle-swap walks preserve all degrees, so a
# seeded walk from a rotational start stays semi-regular forever.
g = random_semi_regular(17, seed=42)
print("sampled n=17:", g.classify())
h = random_semi_regular(17, seed=42)
assert g == h and g != random_semi_regular(17, seed=43)

# The probes wrap this into evidence reports.  S appears in every class
# and every sample we try.
report = turanability_probe(graph_s(), sizes=(5, 7))
for entry in report["per_n"]:
    print(f"S in n={entry['n']}: {entry['containing']}/{entry['population']}")
report = turanability_probe(graph_s(), sizes=(11, 15), mode="sample", samples=10, seed=0)
for entry in report["per_n"]:
    print(f"S in n={entry['n']} samples: {entry['containing']}/{entry['population']}")

# Perfect D-tilings show up in every sampled semi-regular host whose
# order is divisible by 4; sizes that are not divisible are skipped.
d, _ = d_abc(1, 1, 2)
report = tileability_probe(d, sizes=(8, 10, 12), samples=5, seed=0)
for entry in report["per_n"]:
    if "skipped" in entry:
        print(f"n={entry['n']}: skipped ({entry['skipped']})")
    else:
        print(f"n={entry['n']}: {entry['tiled']}/{entry['samples']} tiled")
