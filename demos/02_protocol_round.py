"""
One round of the private computation protocol
=============================================

Nine servers hold two replicated message sets with different security
and privacy thresholds.  The user wants a private linear combination of
all stored messages; each server returns a single field symbol, and the
user decodes two combination symbols exactly.
"""

from gxstplc import (
    AsymmConfig,
    CoefficientBank,
    MessageBank,
    UNEVEN_NINE,
    collect_answers,
    encode_storage,
    expected_combination,
    generate_queries,
    reconstruct,
    setup,
)

# set 1 on four servers tolerates 1 colluder for storage and queries;
# set 2 on six servers tolerates 2 for both
config = AsymmConfig(UNEVEN_NINE, x_vec=(1, 2), t_vec=(1, 2))
params = setup(config)
print(f"field F_{params.field.q}, decoding {params.l_value} symbols per round")
print("server points alpha:", params.alpha.tolist())
print("slot points f:", params.f.tolist())

# the messages and the user's combining coefficients, chosen by hand
messages = MessageBank.from_ints(
    config, params,
    [[[1, 2], [3, 4]],          # set 1: two messages, two symbols each
     [[5, 6], [7, 8]]],         # set 2
)
coeffs = CoefficientBank.from_ints(
    config, params,
    [[[1, 1], [2, 2]],
     [[0, 3], [1, 0]]],
)

# encoding adds Vandermonde-combined noise; queries mask the
# coefficients the same way, with the slot factor keeping them aligned.
# Each set's blocks are one array, [server of the group, slot, message];
# server 1 is the first member of set 1's group
shares = encode_storage(config, params, messages, rng_seed=2024)
queries = generate_queries(config, params, coeffs, rng_seed=2025)

print("\nshare of set 1 at server 1:", shares.blocks[0][0].tolist())
print("query for set 1 at server 1:", queries.blocks[0][0].tolist())

answers = collect_answers(config, params, shares, queries)
print("\nanswers (one symbol per server):", [a.value for a in answers])

decoded = reconstruct(answers, params)
expected = expected_combination(config, messages, coeffs)
print("decoded:  ", [e.value for e in decoded])
print("expected: ", [e.value for e in expected])
assert decoded == expected
print(f"\nrate: {params.l_value} decoded / {config.n_servers} downloaded")
