"""Unit tests for the kernel's bitmask primitives (layer 3 helpers)."""

import random

from repro.kernel.constraints import (
    chain_masks,
    close_masks,
    masks_acyclic,
    mask_gather,
    restrict_masks,
)


class TestChainMasks:
    def test_total_order_pairs(self):
        masks = [0] * 4
        chain_masks(masks, [2, 0, 3])
        # 2 < 0 < 3: each member's mask holds every earlier member.
        assert masks[2] == 0
        assert masks[0] == 1 << 2
        assert masks[3] == (1 << 2) | (1 << 0)
        assert masks[1] == 0

    def test_accumulates_onto_existing_masks(self):
        masks = [0, 1 << 0, 0]
        chain_masks(masks, [1, 2])
        assert masks[1] == 1 << 0  # untouched prior constraint
        assert masks[2] == 1 << 1

    def test_chain_is_already_transitively_closed(self):
        masks = [0] * 5
        chain_masks(masks, range(5))
        assert close_masks(masks) == masks


class TestCloseMasks:
    def test_two_step_path(self):
        # 0 -> 1 -> 2 closes to 0 -> 2.
        masks = [0, 1 << 0, 1 << 1]
        closed = close_masks(masks)
        assert closed[2] == (1 << 1) | (1 << 0)

    def test_does_not_mutate_input(self):
        masks = [0, 1 << 0, 1 << 1]
        close_masks(masks)
        assert masks == [0, 1 << 0, 1 << 1]

    def test_closure_of_cycle_is_total(self):
        masks = [1 << 2, 1 << 0, 1 << 1]  # 0 -> 1 -> 2 -> 0
        closed = close_masks(masks)
        assert all(m == 0b111 for m in closed)


class TestMasksAcyclic:
    def test_empty_is_acyclic(self):
        assert masks_acyclic([0, 0, 0], 3)

    def test_chain_is_acyclic(self):
        masks = [0] * 4
        chain_masks(masks, range(4))
        assert masks_acyclic(masks, 4)

    def test_two_cycle_detected(self):
        assert not masks_acyclic([1 << 1, 1 << 0], 2)

    def test_long_cycle_detected(self):
        masks = [1 << 3, 1 << 0, 1 << 1, 1 << 2]
        assert not masks_acyclic(masks, 4)


class TestRestrictMasks:
    def test_reindexes_to_local_positions(self):
        # Universe edges: 0 -> 2, 1 -> 2; restrict to members (2, 0).
        masks = [0, 0, (1 << 0) | (1 << 1)]
        local = restrict_masks(masks, [2, 0])
        # Local bit 1 is universe 0; 2's mask keeps only member preds.
        assert local == [1 << 1, 0]

    def test_drops_edges_to_non_members(self):
        masks = [0, 1 << 0, 1 << 1]
        assert restrict_masks(masks, [0, 2]) == [0, 0]

    def test_matches_bit_by_bit_gather(self):
        # Runs of consecutive members are gathered a run at a time; any
        # member order must give what a bit-by-bit re-index gives.
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 20)
            masks = [rng.getrandbits(n) for _ in range(n)]
            members = rng.sample(range(n), rng.randint(0, n))
            if rng.random() < 0.5:
                members.sort()
            expected = [
                sum(1 << k for k, gk in enumerate(members) if masks[gj] >> gk & 1)
                for gj in members
            ]
            assert restrict_masks(masks, members) == expected
            gather = mask_gather(members)
            assert restrict_masks(masks, members, gather) == expected

    def test_view_planes_carry_their_gather_table(self):
        from repro.kernel.constraints import history_plane
        from repro.litmus import CATALOG
        from repro.spec.parameters import OperationSet

        plane = history_plane(CATALOG["fig1-sb"].history)
        for operation_set in OperationSet:
            for view in plane.views(operation_set).values():
                assert view.gather == mask_gather(view.members)
        assert plane.universe_plane.gather == mask_gather(range(plane.n))
