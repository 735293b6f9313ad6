# Every suite with its check count: a rewrite that drops a check changes this.
SEED_7_REPORT = [
    "PASS qcore.fuchs_van_de_graaf (2 checks)",
    "PASS qcore.trace_norm (3 checks)",
    "PASS qcore.helstrom (1 checks)",
    "PASS qcore.fidelity_uhlmann (3 checks)",
    "PASS qcore.partial_trace (2 checks)",
    "PASS protocol.honest_runs (4 checks)",
    "PASS attacks.inequality_chain (2 checks)",
    "PASS attacks.purified_attack (2 checks)",
    "PASS catalog.protocols (4 checks)",
    "PASS tradeoff.curve_robustness (5 checks)",
    "PASS oracle.soundness (4 checks)",
    "OK",
]


def test_verify_report_is_pinned(verify_seed_7):
    assert verify_seed_7 == (SEED_7_REPORT, True)
