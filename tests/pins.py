"""Every digest the tests pin, each with what it hashes.

A change that moves a solver's answer on purpose re-pins the answer
digests here, and only here: the tier-1 tests read every one of them
(``test_pins_hold_every_digest`` fails on a pin no test reads).  The drop
digests at the end move only with the topology build.  "The pool" of a
workload is the 40 drops (seeds 0..39) of that ``bench/run.py`` workload,
its overrides applied to ``scenarios/default.json``.  The row goldens of
the four pools run what ``bench/run.py`` runs on them, so they pin at full
precision every row its "answer digest" line hashes (at 9 significant
digits); no digest of the benchmark's own is pinned.
"""

# --- answers ---------------------------------------------------------------

# conftest.rows_sha256 (every row's fields, wall time blanked) of
# run_experiment with every solver and the oracle, on scenarios/default.json
# (seeds 0..19) and on the oracle-k4 pool; both hashes come from the
# full-enumeration oracle, re-pinned when the oracle row's rate and the gaps
# came to be read from is_feasible's report.  default.json's rows without the
# oracle are these with the gaps blanked (test_allocation checks it).
GOLDEN_DEFAULT_ORACLE_ROWS_SHA256 = (
    "83ea984fb80ed86c8f2c37f815ca5f78690108aa70b2188402498ea001b49558")
GOLDEN_K4_ORACLE_ROWS_SHA256 = "f8d93aad314fe8d1274a8b16a68fd2b576d82dec6f53b732f7d471dd4a1a5b51"
# Message passing and the auction on the wide-k50-loose pool, t_max=100;
# its seeds 0..4 were pinned from the auction that bid one transmitter at a
# time.
GOLDEN_K50_ROWS_SHA256 = "64eb3d5fa0084de38813685752432045e8948adacbc55631cca44c956401ee61"
# The same on wide-k50-tight, where most RBs are over their cap at every
# repair; its seeds 0..4 were pinned from the repair that scanned every RB.
GOLDEN_K50_TIGHT_ROWS_SHA256 = "ddd4f1c823c5416acd7b393932fe15817822f1e2e6b7aad234ac1827802c473b"
# All three solvers on the mid-k10 pool, t_max=500; pinned from the
# matching that ranked with per-entry profile lists.
GOLDEN_MID_K10_ROWS_SHA256 = "a265c2fdd4372e80415dbe9992f00c0fc9e95610773622f2f715e74c6368708a"
# Every solver and the oracle on default.json drops with one RB and one
# power level (1 W), seeds 0..19, at K=1 (one SBS) and at K=5: every
# message sweep line, bid row and gain_rows block there has one entry.
ONE_ENTRY_ROWS = {
    "k1": "a06847ad058e20f76169375848ee9bd545cba7ad74f9e6a8be83bfcd4cee00eb",
    "k5": "4f67c25368e2660f6fc93c1f6c71993e24a8f78232852859e2a860915f9d938a",
}

# test_msgpass.message_bytes_sha256 (allocation bytes, iterations,
# converged, message deltas and cycle of run_message_passing) on each pool,
# at t_max 500 for K <= 10 and 100 at K=50.  Pinned from the sweeps that
# took the top two by np.partition and the folds that added with
# np.add.at (the oracle-k4 row from the loop that reused only the previous
# iteration's table and extraction); the row hashes see only the
# allocation and counters, not the message arithmetic.
MESSAGE_BYTES = {
    "oracle-k4": "747a32e7a843cc01041d636ebd7d9b9101b6474fc681122b0e4a7ba58717df86",
    "mid-k10": "7e4709427c4c27cafd0e774bf0d261d0ef2bcc3ffcc28ce364c23257bd72fe84",
    "wide-k50-loose": "e91b70a961a10979f9a7ebef1ee95d9072a9a9b9c291792ab48dfbc05a339a49",
    "wide-k50-tight": "182b58d63627aebba0e50e5ee713a05878b6b028eb9b44830a3d106a0ef00162",
}

# test_auction.auction_bytes_sha256 (allocation bytes, iterations,
# converged, epsilon and merged costs of run_auction) on each pool, with
# MESSAGE_BYTES' t_max.  Pinned from the round that copied its benefit
# planes into a (K, N, L) table and took the runner-up in bid_increment
# from a masked copy of the bidders' rows; the row hashes see only the
# allocation and counters, not the prices.
AUCTION_BYTES = {
    "oracle-k4": "0183beca7396a84f68a9c4085a431a2676ed52c132d8fb60ee0b70312fa7eff4",
    "mid-k10": "2e2c08db28ff7c1dc42b2c8a9fa0bcd556a44dc992eaf81de9cba50c919c940a",
    "wide-k50-loose": "e3ccd0fb07c646108f3b92a4fc6b07e6a55e71d7f5e3647c5e248db7654d3d69",
    "wide-k50-tight": "d3fe4e160972e5518f610e79d1085f84f9f169a65aca68d89a7dbad74bcd260d",
}

# --- drops ---------------------------------------------------------------------

# sha256 over reference.checksum of each pool drop, pinned from the
# topology build that placed receivers one scalar try at a time and took
# distances with np.linalg.norm (now reference.build_topology); the
# placement in array blocks keeps them.  The cap does not enter the drop,
# so both K=50 pools hash alike.
TOPOLOGY = {
    "oracle-k4": "6ed4019b6a7de82a5096005a5093eb9c3cb2d1dc476d2a82a4dd5c494cb16a87",
    "mid-k10": "eb137da997bfd822ec111c0872c565af295069eb2a54e163b99d7f326811d21e",
    "wide-k50-loose": "7665bb632a28e1917af81b9f9d6de3437155964655ae2681ad8816af9a6994bc",
    "wide-k50-tight": "7665bb632a28e1917af81b9f9d6de3437155964655ae2681ad8816af9a6994bc",
}

# test_harness.derived_digest of each pool, pinned from the drops that the
# make_network factory assembled; i_max enters it, so the two K=50 pools
# hash differently.
DERIVED_FIELDS = {
    "oracle-k4": "0ae7ffffb977adf69ff0be8a0f8100939d728de33466e7fbde879592d49dc5be",
    "mid-k10": "05939bae9ffbd585ae274a392cb1b4411d81c7ad5564ad301eab516aca9ff153",
    "wide-k50-loose": "b39e8e4da631eb843749e874bba07f0990a0daf9cb82cf29ce1b7207a432f127",
    "wide-k50-tight": "2693edb9340bca7c827ade1a495e96972037d2d8e6a272922ed15138cd7ff54d",
}
