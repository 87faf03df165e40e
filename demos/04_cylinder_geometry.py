"""Cylinder geometry: the chain order, splitting thresholds and certificates.

Words over {1,2} carry a chain order (leftmost symbol least significant)
under which the maps are pointwise ordered and the v3-cylinders are
endpoint-ordered.  Two splitting mechanisms make distinct cylinders
*strictly* disjoint:

* same length: consecutive pairs split once t is large enough (witnessed
  thresholds, e.g. exactly t > 1/2 for the base pair, t > 2 at length 2);
* length k+1 versus k: splitting holds exactly while t < 3/(1 - 4^(-k)).

Per-pair witnesses assemble into a non-degeneracy certificate; a single t
where all cylinders split at once yields an open-set-condition subsystem.
"""

from fractions import Fraction as F

from ifslab import (
    chain_sorted,
    cylinder,
    find_common_disjoint_parameter,
    lemma3_find_threshold,
    lemma4_extremal_threshold,
    nondegeneracy_certificate,
    verify_lemma2,
    verify_lemma4,
)

print("chain order on {1,2}^3:", " < ".join(chain_sorted(3)))
report = verify_lemma2(3, 1)
print(f"order verified at t = 1: {report.ok} ({report.pairs_checked} pairs, {report.points_checked} sample points)")
print()

print("cylinders of 13 and 23 at growing t (they split once t > 1/2):")
for t in (F(1, 2), F(3, 5), F(1)):
    print(f"  t = {t}: I_13 = {cylinder('13', t)}   I_23 = {cylinder('23', t)}")
threshold = lemma3_find_threshold("1", "2", t_max=16, resolution=F(1, 256))
print(f"witnessed splitting threshold for the base pair: {threshold.witness_t} (still meets at {threshold.fail_t})")
threshold = lemma3_find_threshold("11", "21", t_max=16, resolution=F(1, 256))
print(f"witnessed splitting threshold for (11, 21):       {threshold.witness_t}")
print()

print("cross-length splitting windows (exact thresholds):")
for k in (1, 2, 3):
    t_star = lemma4_extremal_threshold(k)
    print(f"  k = {k}: splits for t < {t_star} ~ {float(t_star):.4f}; verdict at t = 29/10: "
          f"{verify_lemma4(k, F(29, 10)).ok}")
print()

grid = [F(1, 2), F(1), F(2), F(4), F(10), F(50), F(200)]
cert = nondegeneracy_certificate(4, grid)
print(f"non-degeneracy certificate at level 4 over grid {[str(t) for t in grid]}:")
print(f"  complete: {cert.complete} ({len(cert.witnesses)} witnessed pairs)")
print()

search = find_common_disjoint_parameter(3, (F(2), F(4)), F(1, 2))
print("single-parameter search at level 3 on [2, 4]:")
print(f"  all-disjoint window: [{search.window.t_lo}, {search.window.t_hi}]"
      f"  (grid points {[str(t) for t in search.ok_points]})")
print("  at such t the level-3 terminal-3 subsystem satisfies the open set condition")
