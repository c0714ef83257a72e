import sys

import pytest

from shardcalc.arrangement import _lp_witness, context_for


@pytest.fixture
def lp_chambers():
    """The chamber walk's oracle: P's feasible sign patterns as sorted
    bitmasks, found by posing the exact LP for each of the 2^K patterns on
    its own."""
    def chambers(P):
        ctx = context_for(P)
        assert ctx.K <= 12, "the LP oracle is limited to 12 keys"
        return [bits for bits in range(1 << ctx.K)
                if _lp_witness(ctx, bits) is not None]
    return chambers


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, printed at the end."""
    mod = None
    for name, m in sys.modules.items():
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            mod = m
            break
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        label, status, dt = results[num]
        terminalreporter.write_line(
            "criterion %2d %s  %s (%.1fs)" % (num, status, label, dt))
