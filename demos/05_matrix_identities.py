"""
The two matrix identities that make decoding work
=================================================

Interference cancellation rests on dual generalized Reed-Solomon
weights annihilating low-degree power sums, and on a Cauchy block
factoring through Vandermonde matrices.  Both are exact statements
over any prime field; this script shows them concretely in F_11.
"""

from gxstplc import (
    AsymmConfig,
    MessageSet,
    StoragePattern,
    alignment_identity_check,
    cauchy_vandermonde_check,
    dual_grs_weights,
    setup,
)

q = 11
nodes = [2, 5, 6, 9]
weights = dual_grs_weights(nodes, q)
print("nodes:  ", nodes)
print("weights:", list(weights))

# sum_i v_i a_i^j vanishes for every j up to n-2, then jumps to 1
for j in range(len(nodes)):
    total = sum(w * pow(a, j, q) for w, a in zip(weights, nodes)) % q
    print(f"  power sum at degree {j}: {total}")

# the Cauchy block [1/(a_i - f_j)] factors through Vandermonde parts:
# C = -D_v . V_alpha^{-1} . V_f . D_u^{-1}
alpha = [1, 2, 3, 4]
f_pts = [7, 8]
print("\nCauchy factorization over F_11 with four alpha and two f points:",
      cauchy_vandermonde_check(alpha, f_pts, q))

cauchy = [[pow(a - f, q - 2, q) for f in f_pts] for a in alpha]
print("the Cauchy block itself:", cauchy)

# the same cancellation, as the decoder uses it: summing v u a^{i-1}
# over a replication group collapses each slot to -f^{i-1}
pattern = StoragePattern(5, (MessageSet((1, 2, 4, 5)),))
config = AsymmConfig(pattern, x_vec=(1,), t_vec=(1,))
params = setup(config)
print(f"\nalignment sums over F_{params.field.q}, group {params.group_of(1)}:")
for i in range(1, 5):
    ok = all(
        alignment_identity_check(params, 1, i, l)
        for l in range(1, params.l_value + 1)
    )
    print(f"  power {i - 1}: collapses to -f^{i - 1} in every slot: {ok}")
    assert ok
