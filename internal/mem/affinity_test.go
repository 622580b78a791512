package mem

import (
	"reflect"
	"testing"

	"nephele/internal/vclock"
)

// TestHomeShardDistribution: sequential DomIDs — exactly what hv.nextDom
// hands out to a multi-parent clone round — must spread across shards instead of
// marching over neighbours in lockstep like the old dom % nshards mapping.
// With 64 sequential IDs over 16 shards a perfectly uniform deal is 4 per
// shard; the multiplicative hash is required to stay within 3x of uniform
// on every shard and to hit at least half the shards.
func TestHomeShardDistribution(t *testing.T) {
	m := New(65536 * PageSize)
	nsh := m.Shards()
	if nsh != 16 {
		t.Fatalf("pool has %d shards, test assumes 16", nsh)
	}
	for _, base := range []DomID{1, 100, 7000} {
		counts := make([]int, nsh)
		hit := 0
		const doms = 64
		for i := 0; i < doms; i++ {
			h := m.HomeShard(base + DomID(i))
			if h < 0 || h >= nsh {
				t.Fatalf("HomeShard(%d) = %d out of range", base+DomID(i), h)
			}
			if counts[h] == 0 {
				hit++
			}
			counts[h]++
		}
		if hit < nsh/2 {
			t.Errorf("base %d: %d sequential domains hit only %d of %d shards: %v",
				base, doms, hit, nsh, counts)
		}
		for sh, c := range counts {
			if c > 3*doms/nsh {
				t.Errorf("base %d: shard %d got %d of %d domains (uniform %d)",
					base, sh, c, doms, doms/nsh)
			}
		}
	}
}

// TestHomeShardStrideStable: doubling the shard count must refine a
// domain's home shard (old home == new home >> 1), not re-deal it — that
// is what keeps a re-stride from migrating every domain away from the
// frames it already allocated. Halving is the inverse.
func TestHomeShardStrideStable(t *testing.T) {
	m := New(65536 * PageSize)
	if err := m.Restride(1); err != nil {
		t.Fatal(err)
	}
	homes := map[int]map[DomID]int{}
	for n := 1; n <= MaxShards; n *= 2 {
		if err := m.Restride(n); err != nil {
			t.Fatal(err)
		}
		homes[n] = map[DomID]int{}
		for d := DomID(0); d < 512; d++ {
			homes[n][d] = m.HomeShard(d)
		}
	}
	for n := 2; n <= MaxShards; n *= 2 {
		for d := DomID(0); d < 512; d++ {
			if homes[n][d]>>1 != homes[n/2][d] {
				t.Fatalf("dom %d: home %d at %d shards does not refine home %d at %d shards",
					d, homes[n][d], n, homes[n/2][d], n/2)
			}
		}
	}
	if homes[1][42] != 0 {
		t.Fatalf("single-shard home = %d", homes[1][42])
	}
}

// TestPlanWavesDisjoint: every wave's members are pairwise disjoint, every
// request appears exactly once, and the plan is a deterministic pure
// function of the mask slice.
func TestPlanWavesDisjoint(t *testing.T) {
	masks := []uint32{
		0b0011, // 0
		0b0100, // 1: disjoint from 0 → wave 0
		0b0110, // 2: overlaps 1 → deferred
		0b1000, // 3: disjoint → wave 0
		0b0001, // 4: overlaps 0 → deferred
		0b0000, // 5: empty mask, never conflicts → wave 0
	}
	waves, conflicts := PlanWaves(masks)
	seen := map[int]bool{}
	for _, wave := range waves {
		var cover uint32
		for _, i := range wave {
			if seen[i] {
				t.Fatalf("request %d planned twice: %v", i, waves)
			}
			seen[i] = true
			if cover&masks[i] != 0 {
				t.Fatalf("wave %v not disjoint at request %d", wave, i)
			}
			cover |= masks[i]
		}
	}
	if len(seen) != len(masks) {
		t.Fatalf("%d of %d requests planned: %v", len(seen), len(masks), waves)
	}
	want := [][]int{{0, 1, 3, 5}, {2, 4}}
	if !reflect.DeepEqual(waves, want) {
		t.Fatalf("waves = %v, want %v", waves, want)
	}
	if conflicts != 2 {
		t.Fatalf("conflicts = %d, want 2", conflicts)
	}
	// Pure function: identical input, identical plan.
	waves2, conflicts2 := PlanWaves(masks)
	if !reflect.DeepEqual(waves, waves2) || conflicts != conflicts2 {
		t.Fatal("PlanWaves is not deterministic")
	}
}

// TestPlanWavesFallback: when every mask overlaps every other, the plan
// degenerates to one request per wave in the original request order — the
// explicit unavoidable-conflict fallback.
func TestPlanWavesFallback(t *testing.T) {
	masks := []uint32{0b1, 0b1, 0b1, 0b1}
	waves, conflicts := PlanWaves(masks)
	if len(waves) != 4 {
		t.Fatalf("waves = %v", waves)
	}
	for i, wave := range waves {
		if len(wave) != 1 || wave[0] != i {
			t.Fatalf("wave %d = %v, want [%d]", i, wave, i)
		}
	}
	if conflicts != 3+2+1 {
		t.Fatalf("conflicts = %d, want 6", conflicts)
	}
	if waves, conflicts = PlanWaves(nil); len(waves) != 0 || conflicts != 0 {
		t.Fatalf("PlanWaves(nil) = %v, %d", waves, conflicts)
	}
}

// TestPackOrder: the dequeue order is a permutation, degenerates to the
// original order when the pool is serial or when the masks make packing
// pointless, and never models a worse round than request order.
func TestPackOrder(t *testing.T) {
	masks := []uint32{0b01, 0b01, 0b10, 0b10, 0b01, 0b10, 0b00, 0b11}
	checkPerm := func(order []int) {
		t.Helper()
		seen := map[int]bool{}
		for _, i := range order {
			if seen[i] {
				t.Fatalf("job %d emitted twice: %v", i, order)
			}
			seen[i] = true
		}
		if len(seen) != len(masks) {
			t.Fatalf("%d of %d jobs emitted: %v", len(seen), len(masks), order)
		}
	}

	// Serial pool: original order, nothing forced.
	order, forced := PackOrder(masks, 1)
	checkPerm(order)
	for i, j := range order {
		if i != j {
			t.Fatalf("serial pool reordered: %v", order)
		}
	}
	if forced != 0 {
		t.Fatalf("serial pool forced %d", forced)
	}

	// Pairwise-disjoint masks: any order is conflict-free, so index order
	// comes back and nothing is forced.
	if order, forced = PackOrder([]uint32{1, 2, 4, 8}, 4); forced != 0 {
		t.Fatalf("disjoint masks forced %d (%v)", forced, order)
	}
	for i, j := range order {
		if i != j {
			t.Fatalf("disjoint masks reordered: %v", order)
		}
	}

	// All-overlapping masks: the explicit fallback is the original request
	// order; every emission after the first stalls on the shared shard.
	same := []uint32{0b1, 0b1, 0b1, 0b1}
	if order, forced = PackOrder(same, 4); forced != len(same)-1 {
		t.Fatalf("uniform masks forced %d, want %d", forced, len(same)-1)
	}
	for i, j := range order {
		if i != j {
			t.Fatalf("uniform masks reordered: %v", order)
		}
	}

	// Deterministic, and at least as good as request order under the same
	// pool model.
	order, forced = PackOrder(masks, 2)
	checkPerm(order)
	order2, forced2 := PackOrder(masks, 2)
	if !reflect.DeepEqual(order, order2) || forced != forced2 {
		t.Fatal("PackOrder is not deterministic")
	}
	seq := make([]int, len(masks))
	durs := make([]vclock.Duration, len(masks))
	for i := range seq {
		seq[i] = i
		durs[i] = 10
	}
	for _, w := range []int{2, 4, 8} {
		order, _ := PackOrder(masks, w)
		packed := SimulateRound(order, masks, durs, w)
		fixed := SimulateRound(seq, masks, durs, w)
		if packed > fixed {
			t.Errorf("window %d: packed makespan %d worse than fixed %d (%v)", w, packed, fixed, order)
		}
	}
}

// TestSimulateRound pins the pool model against hand-checked schedules:
// one worker serializes everything, disjoint jobs scale with the worker
// count, and jobs sharing a shard serialize no matter how wide the pool is.
func TestSimulateRound(t *testing.T) {
	durs := []vclock.Duration{10, 10, 10, 10}
	seq := []int{0, 1, 2, 3}
	disjoint := []uint32{1, 2, 4, 8}
	same := []uint32{1, 1, 1, 1}

	if got := SimulateRound(seq, disjoint, durs, 1); got != 40 {
		t.Fatalf("serial makespan %d, want 40", got)
	}
	if got := SimulateRound(seq, disjoint, durs, 4); got != 10 {
		t.Fatalf("disjoint 4-worker makespan %d, want 10", got)
	}
	if got := SimulateRound(seq, disjoint, durs, 2); got != 20 {
		t.Fatalf("disjoint 2-worker makespan %d, want 20", got)
	}
	if got := SimulateRound(seq, same, durs, 4); got != 40 {
		t.Fatalf("shared-shard makespan %d, want 40: conflicts must serialize", got)
	}
	// A conflicting job blocks its worker: jobs 0 and 1 share shard 0, so
	// in request order job 1 wastes the second worker's slot for job 0's
	// whole duration and the round's tail pays for it.
	masks := []uint32{0b01, 0b01, 0b10, 0b10}
	if got := SimulateRound([]int{0, 1, 2, 3}, masks, durs, 2); got != 30 {
		t.Fatalf("head-of-line makespan %d, want 30", got)
	}
	// Packed order pairs disjoint jobs and hides both conflicts.
	if got := SimulateRound([]int{0, 2, 1, 3}, masks, durs, 2); got != 20 {
		t.Fatalf("packed makespan %d, want 20", got)
	}
	if got := SimulateRound(nil, nil, nil, 4); got != 0 {
		t.Fatalf("empty round makespan %d", got)
	}
}

// TestShardOccupancy: a space's occupancy mask covers exactly the shards
// its frames live in, moves with re-strides, and disjoint parents report
// disjoint masks on a big pool.
func TestShardOccupancy(t *testing.T) {
	m := New(12 << 30) // host-sized: one 64 MB guest sits inside one shard
	pages := 64 << 20 / PageSize
	a, err := NewSpace(m, 1, pages, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSpace(m, 2, pages, nil)
	if err != nil {
		t.Fatal(err)
	}
	am, bm := a.ShardOccupancy(), b.ShardOccupancy()
	if am == 0 || bm == 0 {
		t.Fatalf("empty occupancy: a=%b b=%b", am, bm)
	}
	if am&bm != 0 {
		t.Fatalf("disjoint parents overlap: a=%b b=%b", am, bm)
	}
	// Every frame's shard must be inside the reported mask.
	lay := m.lay.Load()
	for pfn := 0; pfn < pages; pfn += 101 {
		mfn, err := a.MFNOf(PFN(pfn))
		if err != nil {
			t.Fatal(err)
		}
		if am&(1<<lay.shardIdx(mfn)) == 0 {
			t.Fatalf("pfn %d in shard %d outside mask %b", pfn, lay.shardIdx(mfn), am)
		}
	}
	// After merging to one shard the masks collapse and overlap.
	if err := m.Restride(1); err != nil {
		t.Fatal(err)
	}
	if am, bm = a.ShardOccupancy(), b.ShardOccupancy(); am != 1 || bm != 1 {
		t.Fatalf("single-shard occupancy: a=%b b=%b", am, bm)
	}
}
