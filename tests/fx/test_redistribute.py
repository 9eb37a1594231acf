"""Tests for the redistribution planner.

The key checks tie the planner's exact counts to the closed-form cost
equations of Section 4.2 of the paper for the three Airshed steps.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fx import Distribution, plan_redistribution

SPECIES, LAYERS, NODES = 35, 5, 700
SHAPE = (SPECIES, LAYERS, NODES)
W = 8

D_REPL = Distribution.replicated(3)
D_TRANS = Distribution.block(3, 1)
D_CHEM = Distribution.block(3, 2)


def layouts(P):
    return (
        D_REPL.layout(SHAPE, P),
        D_TRANS.layout(SHAPE, P),
        D_CHEM.layout(SHAPE, P),
    )


class TestAirshedSteps:
    @pytest.mark.parametrize("P", [2, 4, 8, 16, 32])
    def test_repl_to_trans_is_pure_local_copy(self, P):
        repl, trans, _ = layouts(P)
        plan = plan_redistribution(repl, trans, W)
        assert plan.network_bytes() == 0
        assert plan.message_count() == 0
        # The paper's H term: the busiest node copies
        # ceil(layers/min(layers,P)) * species * nodes * W bytes.
        expected_max = (
            math.ceil(LAYERS / min(LAYERS, P)) * SPECIES * NODES * W
        )
        max_copied = max(plan.bytes_copied_by(i) for i in range(P))
        assert max_copied == expected_max

    @pytest.mark.parametrize("P", [2, 4, 8, 16, 32])
    def test_trans_to_chem_sender_load(self, P):
        _, trans, chem = layouts(P)
        plan = plan_redistribution(trans, chem, W)
        # Paper: the busiest sender ships (almost) its whole local block,
        # G * ceil(layers/min(layers,P)) * species * nodes * W, in P messages.
        max_layers = math.ceil(LAYERS / min(LAYERS, P))
        block_bytes = max_layers * SPECIES * NODES * W
        busiest_sent = max(plan.bytes_sent_by(i) for i in range(P))
        busiest_kept = max(plan.bytes_copied_by(i) for i in range(P))
        # sent + kept-locally = the node's whole block
        assert busiest_sent + plan.bytes_copied_by(0) <= block_bytes
        assert busiest_sent <= block_bytes
        assert busiest_sent >= block_bytes * (P - 1) / P * 0.99
        # each owner sends one message per remote destination
        senders = [i for i in range(P) if plan.bytes_sent_by(i) > 0]
        assert len(senders) == min(LAYERS, P) or len(senders) <= min(LAYERS, P)
        for s in senders:
            msgs = sum(
                t.messages for t in plan.transfers if t.src == s and t.dst != s
            )
            assert msgs == P - 1
        assert busiest_kept > 0  # diagonal tile stays local

    @pytest.mark.parametrize("P", [2, 4, 8, 16, 32])
    def test_chem_to_repl_receiver_load(self, P):
        _, _, chem = layouts(P)
        repl = D_REPL.layout(SHAPE, P)
        plan = plan_redistribution(chem, repl, W)
        total = SPECIES * LAYERS * NODES * W
        for dst in range(P):
            own = chem.local_nbytes(dst, W)
            assert plan.bytes_received_by(dst) == total - own
            assert plan.bytes_copied_by(dst) == own
            recv_msgs = sum(
                t.messages for t in plan.transfers if t.dst == dst and t.src != dst
            )
            assert recv_msgs == P - 1

    def test_identical_layouts_no_plan(self):
        repl, trans, chem = layouts(8)
        assert plan_redistribution(trans, trans, W).is_empty()
        assert plan_redistribution(repl, repl, W).is_empty()
        assert plan_redistribution(chem, chem, W).is_empty()

    def test_plans_are_cached(self):
        _, trans, chem = layouts(8)
        p1 = plan_redistribution(trans, chem, W)
        p2 = plan_redistribution(trans, chem, W)
        assert p1 is p2

    def test_plan_cache_is_bounded(self, monkeypatch):
        """A resident daemon plans for every P it is ever asked about;
        the cache is cleared wholesale at its cap, like the layout cache."""
        from repro.fx import redistribute

        monkeypatch.setattr(redistribute, "_PLAN_CACHE_MAX", 4)
        redistribute._PLAN_CACHE.clear()
        for P in range(2, 12):
            _, trans, chem = layouts(P)
            plan = plan_redistribution(trans, chem, W)
            assert len(redistribute._PLAN_CACHE) <= 4
            assert plan_redistribution(trans, chem, W) is plan


class TestValidation:
    def test_shape_mismatch_rejected(self):
        a = D_TRANS.layout(SHAPE, 4)
        b = D_CHEM.layout((35, 5, 701), 4)
        with pytest.raises(ValueError):
            plan_redistribution(a, b, W)

    def test_procs_mismatch_rejected(self):
        a = D_TRANS.layout(SHAPE, 4)
        b = D_CHEM.layout(SHAPE, 8)
        with pytest.raises(ValueError):
            plan_redistribution(a, b, W)


class TestConservation:
    """Every plan delivers each target element exactly once."""

    @pytest.mark.parametrize(
        "src,dst",
        [
            (D_REPL, D_TRANS),
            (D_TRANS, D_CHEM),
            (D_CHEM, D_REPL),
            (D_TRANS, D_REPL),
            (D_CHEM, D_TRANS),
            (D_REPL, D_CHEM),
        ],
    )
    @pytest.mark.parametrize("P", [1, 3, 7])
    def test_delivered_bytes_match_target_footprint(self, src, dst, P):
        a = src.layout(SHAPE, P)
        b = dst.layout(SHAPE, P)
        plan = plan_redistribution(a, b, W)
        for node in range(P):
            need = b.local_nbytes(node, W)
            have_already = 0
            if a.is_replicated:
                # Everything needed is already local (copy only).
                have_already = need - plan.bytes_copied_by(node)
                assert have_already == 0
            got = plan.bytes_received_by(node) + plan.bytes_copied_by(node)
            assert got == need or (a == b and got == 0)


# ---------------------------------------------------------------------------
# Property-based: conservation holds for random shapes/placements.
# ---------------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    s0=st.integers(min_value=1, max_value=6),
    s1=st.integers(min_value=1, max_value=9),
    s2=st.integers(min_value=1, max_value=17),
    P=st.integers(min_value=1, max_value=9),
    src_dim=st.sampled_from([None, 0, 1, 2]),
    dst_dim=st.sampled_from([None, 0, 1, 2]),
    src_kind=st.sampled_from(["block", "cyclic"]),
    dst_kind=st.sampled_from(["block", "cyclic"]),
)
def test_random_redistribution_conserves_data(
    s0, s1, s2, P, src_dim, dst_dim, src_kind, dst_kind
):
    shape = (s0, s1, s2)

    def make(dim, kind):
        if dim is None:
            return Distribution.replicated(3)
        if kind == "block":
            return Distribution.block(3, dim)
        return Distribution.cyclic(3, dim)

    a = make(src_dim, src_kind).layout(shape, P)
    b = make(dst_dim, dst_kind).layout(shape, P)
    plan = plan_redistribution(a, b, 8)

    if a == b or (a.is_replicated and b.is_replicated):
        assert plan.is_empty()
        return

    for node in range(P):
        delivered = plan.bytes_received_by(node) + plan.bytes_copied_by(node)
        assert delivered == b.local_nbytes(node, 8)
    # No node ships data it does not own.
    for node in range(P):
        assert (
            plan.bytes_sent_by(node) + plan.bytes_copied_by(node)
            <= a.local_nbytes(node, 8) * max(P, 1)
        )
    # Optimality: nothing already local crosses the network.  Each
    # node's received bytes equal its target footprint minus what it
    # could satisfy locally (replicated source ⇒ zero network).
    if a.is_replicated:
        assert plan.network_bytes() == 0


@settings(max_examples=40, deadline=None)
@given(
    P=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=1, max_value=24),
)
def test_same_dim_repartition_moves_only_the_difference(P, n):
    """BLOCK -> CYCLIC along one dim: every byte received is a byte the
    node did not own before (the planner never re-sends local data)."""
    shape = (3, n)
    a = Distribution.block(2, 1).layout(shape, P)
    b = Distribution.cyclic(2, 1).layout(shape, P)
    plan = plan_redistribution(a, b, 8)
    for node in range(P):
        owned_before = set(a.owned_indices(node).tolist())
        owned_after = set(b.owned_indices(node).tolist())
        new_indices = owned_after - owned_before
        kept_indices = owned_after & owned_before
        other = 3 * 8  # non-distributed dim elements x itemsize
        assert plan.bytes_received_by(node) == len(new_indices) * other
        assert plan.bytes_copied_by(node) == len(kept_indices) * other


class TestAnalyzerEdgeCases:
    """Edge cases the static analyzer's plan elision relies on
    (`repro.analyze` skips steps exactly when the plan is empty)."""

    def test_identity_redistribution_plans_nothing(self):
        for dist in (D_REPL, D_TRANS, D_CHEM):
            layout = dist.layout(SHAPE, 8)
            plan = plan_redistribution(layout, layout, W)
            assert plan.is_empty()
            assert plan.network_bytes() == 0
            assert plan.copied_bytes() == 0
            assert plan.message_count() == 0

    def test_replicated_to_replicated_is_empty(self):
        """Two distinct replicated directives still describe the same
        placement: nothing moves and nothing is copied."""
        a = Distribution.replicated(3).layout(SHAPE, 8)
        b = Distribution.replicated(3).layout(SHAPE, 8)
        assert plan_redistribution(a, b, W).is_empty()

    @pytest.mark.parametrize("src,dst", [
        (D_REPL, D_TRANS),
        (D_TRANS, D_CHEM),
        (D_CHEM, D_REPL),
    ])
    def test_single_node_group_never_communicates(self, src, dst):
        """On a one-node group every layout is total ownership: the plan
        may copy locally but must not send a single message."""
        plan = plan_redistribution(
            src.layout(SHAPE, 1), dst.layout(SHAPE, 1), W
        )
        assert plan.message_count() == 0
        assert plan.network_bytes() == 0
        total = SPECIES * LAYERS * NODES * W
        for t in plan.transfers:
            assert t.src == 0 and t.dst == 0
        assert plan.copied_bytes() in (0, total)
