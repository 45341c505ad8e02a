"""The two-generational collector: promotion, compaction, sweeping."""

import pytest

from repro.runtime.errors import GcInvariantError


class TestGen0Promotion:
    def test_survivors_move_and_keep_contents(self, runtime):
        runtime.define_class("P", [("x", "int32")])
        ref = runtime.new("P", x=77)
        old = ref.addr
        runtime.collect(0)
        assert ref.addr != old, "survivor should have been copied"
        assert runtime.heap.in_gen1(ref.addr)
        assert runtime.get_field(ref, "x") == 77

    def test_references_rewritten(self, runtime):
        runtime.define_class("Pair", [("left", "object"), ("right", "object")])
        a = runtime.new_array("int32", 3, values=[1, 2, 3])
        pair = runtime.new("Pair")
        runtime.set_ref(pair, "left", a)
        runtime.collect(0)
        left = runtime.get_field(pair, "left")
        assert left.same_object(a)
        assert [runtime.get_elem(left, i) for i in range(3)] == [1, 2, 3]

    def test_shared_object_stays_shared(self, runtime):
        runtime.define_class("Cell", [("ref", "object")])
        shared = runtime.new_array("byte", 8)
        c1 = runtime.new("Cell")
        c2 = runtime.new("Cell")
        runtime.set_ref(c1, "ref", shared)
        runtime.set_ref(c2, "ref", shared)
        runtime.collect(0)
        assert runtime.get_field(c1, "ref").addr == runtime.get_field(c2, "ref").addr

    def test_cycles_survive(self, runtime):
        runtime.define_class("N", [("next", "N")])
        a = runtime.new("N")
        b = runtime.new("N")
        runtime.set_ref(a, "next", b)
        runtime.set_ref(b, "next", a)
        runtime.collect(0)
        assert runtime.get_field(runtime.get_field(a, "next"), "next").same_object(a)

    def test_garbage_not_promoted(self, runtime):
        runtime.define_class("G", [("x", "int64")])
        before = runtime.gc.stats.objects_promoted
        tmp = runtime.new("G")
        del tmp  # drop the only root
        runtime.collect(0)
        promoted_for_tmp = runtime.gc.stats.objects_promoted - before
        assert promoted_for_tmp == 0

    def test_nursery_reset_after_collection(self, runtime):
        runtime.new_array("byte", 100)
        runtime.collect(0)
        assert runtime.heap.nursery.alloc_ptr == runtime.heap.nursery.base

    def test_transitive_reachability(self, runtime):
        runtime.define_class("L", [("next", "L"), ("v", "int32")])
        head = runtime.new("L", v=0)
        node = head
        for i in range(1, 20):
            nxt = runtime.new("L", v=i)
            runtime.set_ref(node, "next", nxt)
            node = nxt
        runtime.collect(0)
        node, count = head, 0
        while node is not None:
            assert runtime.get_field(node, "v") == count
            node = runtime.get_field(node, "next")
            count += 1
        assert count == 20


class TestAllocationTriggersGc:
    def test_nursery_pressure_collects(self, tiny_runtime):
        rt = tiny_runtime
        before = rt.gc.stats.gen0_collections
        keep = [rt.new_array("byte", 512) for _ in range(40)]  # > 4 KiB nursery
        assert rt.gc.stats.gen0_collections > before
        for arr in keep:
            assert rt.array_length(arr) == 512

    def test_large_object_goes_to_elder(self, tiny_runtime):
        rt = tiny_runtime
        big = rt.new_array("byte", 16 << 10)  # 4x the nursery
        assert rt.heap.in_gen1(big.addr)

    def test_large_object_reusing_a_hole_is_zeroed(self, tiny_runtime):
        rt = tiny_runtime
        big = rt.new_array("byte", 16 << 10)
        rt.fill_array_bytes(big, b"\xff" * (16 << 10))
        addr = big.addr
        del big
        rt.collect(1)  # the sweep frees it ...
        again = rt.new_array("byte", 16 << 10)
        assert again.addr == addr  # ... first fit hands the hole back ...
        assert rt.array_bytes(again) == bytes(16 << 10)  # ... zeroed

    def test_periodic_full_gc(self, tiny_runtime):
        rt = tiny_runtime
        for _ in range(200):
            rt.new_array("byte", 512)
        assert rt.gc.stats.gen1_collections >= 1


class TestGen1Sweep:
    def test_abandoned_elder_objects_swept(self, runtime):
        ref = runtime.new_array("byte", 64)
        runtime.collect(0)  # promote to elder
        addr = ref.addr
        assert addr in runtime.heap.gen1_allocs
        del ref
        runtime.collect(1)
        assert addr not in runtime.heap.gen1_allocs
        assert runtime.gc.stats.objects_swept >= 1

    def test_live_elder_objects_kept(self, runtime):
        ref = runtime.new_array("int32", 4, values=[9, 8, 7, 6])
        runtime.collect(0)
        runtime.collect(1)
        assert [runtime.get_elem(ref, i) for i in range(4)] == [9, 8, 7, 6]

    def test_elder_no_compaction(self, runtime):
        """Once in the elder generation objects are no longer compacted."""
        ref = runtime.new_array("byte", 64)
        runtime.collect(0)
        addr = ref.addr
        runtime.collect(1)
        assert ref.addr == addr

    def test_elder_graph_reachability(self, runtime):
        runtime.define_class("EN", [("next", "EN")])
        a = runtime.new("EN")
        b = runtime.new("EN")
        runtime.set_ref(a, "next", b)
        runtime.collect(0)
        b_addr = runtime.get_field(a, "next").addr
        runtime.collect(1)  # b is reachable only through a
        assert b_addr in runtime.heap.gen1_allocs


class TestRememberedSet:
    def test_elder_to_young_edge_keeps_young_alive(self, runtime):
        runtime.define_class("Holder", [("child", "object")])
        holder = runtime.new("Holder")
        runtime.collect(0)  # holder now elder
        child = runtime.new_array("int32", 2, values=[5, 6])
        runtime.set_ref(holder, "child", child)  # elder -> young edge
        child_only_via_holder = runtime.get_field(holder, "child")
        del child
        runtime.collect(0)
        got = runtime.get_field(holder, "child")
        assert got is not None
        assert [runtime.get_elem(got, i) for i in range(2)] == [5, 6]
        del child_only_via_holder

    def test_elder_slot_rewritten_on_promotion(self, runtime):
        runtime.define_class("H2", [("child", "object")])
        h = runtime.new("H2")
        runtime.collect(0)
        child = runtime.new_array("byte", 8)
        runtime.set_ref(h, "child", child)
        young_addr = child.addr
        runtime.collect(0)
        assert child.addr != young_addr
        assert runtime.get_field(h, "child").addr == child.addr


class TestReentrancy:
    def test_reentrant_collection_rejected(self, runtime):
        hook_called = []

        def evil_hook(gen):
            if not hook_called:
                hook_called.append(True)
                with pytest.raises(GcInvariantError):
                    # post-collect hooks run outside the lock, so collect
                    # from a *conditional pin predicate* instead
                    pass

        # direct check: flag is held during collection
        ref = runtime.new_array("byte", 8)

        def predicate():
            with pytest.raises(GcInvariantError):
                runtime.gc.collect(0)
            return False

        runtime.gc.register_conditional_pin(ref, predicate)
        runtime.collect(0)


class TestRememberedSetArrays:
    def test_elder_ref_array_element_keeps_young_alive(self, runtime):
        """The write barrier covers array-element stores too."""
        runtime.define_class("RA", [])
        arr = runtime.new_array("RA", 4)
        runtime.collect(0)  # promote the array to the elder generation
        young = runtime.new("RA")
        runtime.set_elem_ref(arr, 2, young)  # elder slot -> young target
        del young
        import gc as pygc

        pygc.collect()
        runtime.collect(0)
        got = runtime.get_elem(arr, 2)
        assert got is not None
        assert runtime.heap.in_gen1(got.addr)
