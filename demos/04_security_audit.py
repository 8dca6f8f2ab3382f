"""
Auditing secrecy: rank certificates and brute-force ground truth
================================================================

Two ways to check that colluding servers learn nothing.  The rank
certificate inspects the noise coefficient matrices; the exhaustive
audit enumerates every message and noise realization over a tiny field
and verifies statistical independence directly.  They must agree, and
both must flag collusion beyond the thresholds.
"""

import itertools

from gxstplc import (
    AsymmConfig,
    GRAPH_SIX,
    MessageSet,
    StoragePattern,
    asymptotic_capacity,
    exhaustive_independence_audit,
    generate_augmented_system,
    merged_scheme_audit,
    privacy_rank_certificate,
    security_rank_certificate,
    setup,
    virtual_config,
)

# a three-server toy system small enough for full enumeration
pattern = StoragePattern(3, (MessageSet((1, 2, 3)),))
config = AsymmConfig(pattern, x_vec=(1,), t_vec=(1,), l_value=1)
params = setup(config, field_override=5)
print("toy system over F_5: one set on three servers, thresholds (1, 1)")

for subset in itertools.chain(
    itertools.combinations((1, 2, 3), 1), itertools.combinations((1, 2, 3), 2)
):
    cert_s = security_rank_certificate(config, params, subset)
    cert_p = privacy_rank_certificate(config, params, subset)
    truth = exhaustive_independence_audit(config, params, subset)
    print(f"  colluders {list(subset)}: certificate "
          f"(storage {cert_s}, query {cert_p}), exhaustive passed {truth.passed}")
    assert truth.passed == (cert_s and cert_p)

# two colluders exceed both thresholds: the enumeration sees dependence
broken = exhaustive_independence_audit(config, params, (1, 2))
for violation in broken.violations:
    print("  detected:", violation.detail)

# the merged six-server system: colluding originals expose all their
# virtual copies, and the certificates still clear every subset
cap = asymptotic_capacity(GRAPH_SIX, 1, 1)
aug = generate_augmented_system(GRAPH_SIX, 1, 1, cap)
report = merged_scheme_audit(aug, setup(virtual_config(aug)), 1, 1)
print(f"\nmerged six-server audit: checked {report.checked_subsets} "
      f"collusion subsets, passed = {report.passed}")
assert report.passed
