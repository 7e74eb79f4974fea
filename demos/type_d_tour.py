"""
Signed permutations and the type D verifier
===========================================

The same arrangement story in the even signed permutation group:
roots replace position pairs, and smoothness is read off from the
palindromicity of the interval rank counts.
"""

from smoothchains import type_d

# rank 3 root system: positive roots, simples, and the covers of the
# root poset
n = 3
print("positive roots:", " ".join(type_d.root_text(a) for a in type_d.positive_roots(n)))
print("simple roots:  ", " ".join(type_d.root_text(a) for a in type_d.simple_roots(n)))
for a, b in type_d.root_poset_covers(n):
    print(f"  {type_d.root_text(a)} < {type_d.root_text(b)}")

# each root acts as a reflection; sign flips come in pairs
alpha = type_d.parse_root("e2+e1", 4)
print("reflection of e2+e1:", type_d.sp_text(type_d.reflection_window(alpha, 4)))

# smoothness via interval rank counts (palindromic means smooth)
group = type_d.weyl_group(4)
for text in ("-2,-1,3,4", "-1,-2,-3,-4"):
    w = type_d.sp_parse(text)
    counts = group.interval_rank_counts(w)
    print(f"{type_d.sp_text(w)}: counts {list(counts)} smooth {group.is_smooth(w)}")

# plain windows embed with signs untouched and keep their verdict
embedded = type_d.embed_window((3, 4, 1, 2))
print("3412 embeds to", type_d.sp_text(embedded), "smooth:", group.is_smooth(embedded))

# the full verifier: every compatible arrangement of the reflections
# below each smooth element of the rank 4 group must multiply back to
# it and walk saturated chains from both ends; the arrangements are
# folded over sets of placed reflections, never listed
reports = [type_d.check_element(group, w) for w in type_d.smooth_elements(4)]
counterexamples = [e.window for e in reports if not e.ok]
print("rank 4 group", len(group), "smooth", len(reports))
print("orders", sum(e.orders_found for e in reports), "counterexamples", len(counterexamples))
print("simple-root order:", "; ".join(type_d.simple_order_config(4)))
print("result:", "ok" if not counterexamples else "refuted")
