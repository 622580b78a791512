package mem

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"nephele/internal/fault"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// poolState is everything a pool exposes about its frames through the
// public API: the aggregate counters, every domain's usage, and each
// in-use frame's owner, refcount and a content probe. It deliberately
// excludes shard geometry — Restride's contract is that this struct is
// byte-identical across a re-stride, in the snapshot-differential style of
// internal/mem/lazytest.
type poolState struct {
	Free   int
	Shared int
	UsedBy map[DomID]int
	Frames map[MFN]frameState
}

type frameState struct {
	Owner    DomID
	Refcount int
	Probe    [8]byte
}

// capturePoolState reads the pool's full observable state. doms is the set
// of domain IDs whose usage to record (discovered owners are added).
func capturePoolState(t *testing.T, m *Memory, doms []DomID) poolState {
	t.Helper()
	st := poolState{
		Free:   m.FreeFrames(),
		Shared: m.SharedFrames(),
		UsedBy: make(map[DomID]int),
		Frames: make(map[MFN]frameState),
	}
	seen := map[DomID]bool{}
	for mfn := MFN(0); int(mfn) < m.TotalFrames(); mfn++ {
		owner, err := m.Owner(mfn)
		if err != nil {
			continue // free frame
		}
		rc, err := m.Refcount(mfn)
		if err != nil {
			t.Fatalf("Refcount(%d): %v", mfn, err)
		}
		fs := frameState{Owner: owner, Refcount: rc}
		if err := m.Read(mfn, 0, fs.Probe[:]); err != nil {
			t.Fatalf("Read(%d): %v", mfn, err)
		}
		st.Frames[mfn] = fs
		seen[owner] = true
	}
	for _, d := range doms {
		seen[d] = true
	}
	for d := range seen {
		st.UsedBy[d] = m.UsedBy(d)
	}
	return st
}

// populatePool drives a deterministic mixed workload against a fresh
// 65536-frame pool: raw allocations with holes punched into the free
// lists, COW-shared family frames at several refcounts, written page
// contents and a clone with private copies. Returns the pool, the live
// spaces and the domain IDs involved.
func populatePool(t *testing.T, seed int64) (*Memory, []*Space, []DomID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := New(65536 * PageSize)

	// Raw allocations for two domains, with every third frame freed to
	// leave recycled holes below the watermarks.
	a, err := m.AllocN(50, 600, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(a); i += 3 {
		if err := m.Free(50, a[i]); err != nil {
			t.Fatal(err)
		}
	}
	b, err := m.AllocN(51, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mfn := range b[:50] {
		if err := m.Share(51, mfn, 1+rng.Intn(4), nil); err != nil {
			t.Fatal(err)
		}
	}

	// A parent space with written contents, a clone (everything COW) and a
	// grandchild; the clone dirties some pages back to private.
	parent, err := NewSpace(m, 1, 3000, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for i := 0; i < 300; i++ {
		pfn := PFN(rng.Intn(3000))
		rng.Read(buf)
		if err := parent.Write(pfn, 0, buf, nil); err != nil {
			t.Fatal(err)
		}
	}
	child, _, err := parent.CloneOp(obs.OpCtx{}, 2, false, CloneEager)
	if err != nil {
		t.Fatal(err)
	}
	grand, _, err := child.CloneOp(obs.OpCtx{}, 3, false, CloneEager)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		pfn := PFN(rng.Intn(3000))
		rng.Read(buf)
		if err := child.Write(pfn, 0, buf, nil); err != nil {
			t.Fatal(err)
		}
	}
	return m, []*Space{parent, child, grand}, []DomID{1, 2, 3, 50, 51, DomIDCOW}
}

// TestRestridePreservesState is the snapshot-differential test of the
// re-stride epoch protocol: across any sequence of re-strides, every MFN,
// owner, COW sharer count, content byte, per-domain usage figure and
// aggregate counter is byte-identical, and only the shard geometry and
// epoch move.
func TestRestridePreservesState(t *testing.T) {
	m, spaces, doms := populatePool(t, 42)
	before := capturePoolState(t, m, doms)
	epoch := m.LayoutEpoch()
	if epoch != 0 {
		t.Fatalf("fresh pool epoch = %d", epoch)
	}
	for _, n := range []int{1, 2, 32, 4, 16} {
		if err := m.Restride(n); err != nil {
			t.Fatalf("Restride(%d): %v", n, err)
		}
		epoch++
		if got := m.Shards(); got != n {
			t.Fatalf("Shards = %d after Restride(%d)", got, n)
		}
		if got := m.LayoutEpoch(); got != epoch {
			t.Fatalf("epoch = %d after %d restrides", got, epoch)
		}
		after := capturePoolState(t, m, doms)
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("pool state changed across Restride(%d):\nbefore: free=%d shared=%d used=%v\nafter:  free=%d shared=%d used=%v",
				n, before.Free, before.Shared, before.UsedBy, after.Free, after.Shared, after.UsedBy)
		}
	}
	// The re-strided pool must remain fully functional: release everything
	// and check the frames all come home.
	for _, s := range spaces {
		if err := s.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ReleaseN(50, collectOwned(t, m, 50)); err != nil {
		t.Fatal(err)
	}
	if err := m.ReleaseN(51, collectOwned(t, m, 51)); err != nil {
		t.Fatal(err)
	}
	for m.SharedFrames() > 0 {
		released := false
		for mfn := MFN(0); int(mfn) < m.TotalFrames(); mfn++ {
			if owner, err := m.Owner(mfn); err == nil && owner == DomIDCOW {
				if err := m.DropShared(mfn); err != nil {
					t.Fatal(err)
				}
				released = true
			}
		}
		if !released {
			break
		}
	}
	if got := m.FreeFrames(); got != m.TotalFrames() {
		t.Fatalf("after releasing everything: %d free of %d", got, m.TotalFrames())
	}
}

func collectOwned(t *testing.T, m *Memory, dom DomID) []MFN {
	t.Helper()
	var out []MFN
	for mfn := MFN(0); int(mfn) < m.TotalFrames(); mfn++ {
		if owner, err := m.Owner(mfn); err == nil && owner == dom {
			out = append(out, mfn)
		}
	}
	return out
}

// TestRestrideRunToRunDeterminism: two pools driven through the identical
// operation sequence, including the identical re-strides, end in raw
// byte-identical state — and allocate identical MFN runs afterwards. The
// canonical restripe rebuild (recycled lists re-sorted, counters
// recounted) is what makes the post-restride allocator history-free.
func TestRestrideRunToRunDeterminism(t *testing.T) {
	run := func() (*Memory, poolState, []MFN) {
		m, _, doms := populatePool(t, 1337)
		if err := m.Restride(4); err != nil {
			t.Fatal(err)
		}
		if err := m.Restride(32); err != nil {
			t.Fatal(err)
		}
		post, err := m.AllocN(77, 500, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m, capturePoolState(t, m, doms), post
	}
	_, st1, post1 := run()
	_, st2, post2 := run()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatal("identical op+restride sequences diverged")
	}
	if !reflect.DeepEqual(post1, post2) {
		t.Fatalf("post-restride allocations diverged: %v vs %v", post1[:4], post2[:4])
	}
}

// TestRestrideEquivalenceVsTwin compares a pool that re-strides mid-workload
// against a twin that never does, using only MFN-agnostic observables:
// space contents read by PFN, aggregate counters, per-domain usage and the
// virtual-time meters. Raw MFNs may differ (the twin's allocator walked a
// different shard geometry) but nothing a guest or the golden series can
// see may.
func TestRestrideEquivalenceVsTwin(t *testing.T) {
	type obsState struct {
		free, shared   int
		used1, used2   int
		usedCOW        int
		meter          vclock.Duration
		parentContents [64]byte
		childContents  [64]byte
	}
	run := func(restride bool) obsState {
		m := New(65536 * PageSize)
		meter := vclock.NewMeter(nil)
		parent, err := NewSpace(m, 1, 2000, meter)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		for i := 0; i < 200; i++ {
			for j := range buf {
				buf[j] = byte(i + j)
			}
			if err := parent.Write(PFN(i*7%2000), 0, buf, meter); err != nil {
				t.Fatal(err)
			}
		}
		if restride {
			if err := m.Restride(2); err != nil {
				t.Fatal(err)
			}
		}
		child, _, err := parent.CloneOp(obs.Ctx(meter), 2, false, CloneEager)
		if err != nil {
			t.Fatal(err)
		}
		if restride {
			if err := m.Restride(32); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			for j := range buf {
				buf[j] = byte(200 + i + j)
			}
			if err := child.Write(PFN(i*11%2000), 0, buf, meter); err != nil {
				t.Fatal(err)
			}
		}
		var st obsState
		st.free = m.FreeFrames()
		st.shared = m.SharedFrames()
		st.used1 = m.UsedBy(1)
		st.used2 = m.UsedBy(2)
		st.usedCOW = m.UsedBy(DomIDCOW)
		st.meter = meter.Elapsed()
		for i := 0; i < 8; i++ {
			if err := parent.Read(PFN(i*7%2000), 0, st.parentContents[i*8:(i+1)*8]); err != nil {
				t.Fatal(err)
			}
			if err := child.Read(PFN(i*11%2000), 0, st.childContents[i*8:(i+1)*8]); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	with := run(true)
	without := run(false)
	if with != without {
		t.Fatalf("re-striding changed observable behavior:\nwith:    %+v\nwithout: %+v", with, without)
	}
}

// TestRestrideArgs covers the parameter contract: power-of-two within
// 1..MaxShards, and a same-count call is a free no-op.
func TestRestrideArgs(t *testing.T) {
	m := New(65536 * PageSize)
	for _, n := range []int{0, -1, 3, 6, 33, 64} {
		if err := m.Restride(n); !errors.Is(err, ErrBadStride) {
			t.Fatalf("Restride(%d) = %v, want ErrBadStride", n, err)
		}
	}
	if err := m.Restride(m.Shards()); err != nil {
		t.Fatal(err)
	}
	if got := m.LayoutEpoch(); got != 0 {
		t.Fatalf("no-op restride bumped epoch to %d", got)
	}
}

// TestRestrideFaultRollback arms the mid-restride fault point — it fires
// after the pool is quiesced, before the new layout is published — and
// asserts the old stride survives: geometry, epoch and every observable
// byte unchanged, and the pool still fully functional (the fault-matrix
// rollback case for the re-stride writer).
func TestRestrideFaultRollback(t *testing.T) {
	m, _, doms := populatePool(t, 7)
	before := capturePoolState(t, m, doms)
	shards, epoch := m.Shards(), m.LayoutEpoch()

	reg := fault.NewRegistry()
	reg.Inject(fault.PointMemRestride, fault.FailOnce(), fault.Fatal)
	ctx := obs.OpCtx{}.WithFaults(reg)
	err := m.RestrideOp(ctx, 32)
	if pt, ok := fault.PointOf(err); !ok || pt != fault.PointMemRestride {
		t.Fatalf("RestrideOp under fault = %v", err)
	}
	if m.Shards() != shards || m.LayoutEpoch() != epoch {
		t.Fatalf("aborted restride changed layout: %d shards epoch %d", m.Shards(), m.LayoutEpoch())
	}
	if after := capturePoolState(t, m, doms); !reflect.DeepEqual(before, after) {
		t.Fatal("aborted restride changed pool state")
	}
	// The rule fired once; the retry goes through and the pool still works.
	if err := m.RestrideOp(ctx, 32); err != nil {
		t.Fatalf("retry after aborted restride: %v", err)
	}
	if m.Shards() != 32 {
		t.Fatalf("Shards = %d after retry", m.Shards())
	}
	if after := capturePoolState(t, m, doms); !reflect.DeepEqual(before, after) {
		t.Fatal("retried restride changed pool state")
	}
}

// TestRestrideUnderFire is the -race stress test: re-strides cycle through
// every legal shard count while eager clone/release rounds, a lazy clone's
// background streamer and demand faults all hammer the same pool. The
// validate-after-lock retry must keep every operation linearizable across
// layout swaps; the final accounting proves no frame was lost or doubled.
func TestRestrideUnderFire(t *testing.T) {
	m := New(1 << 30) // 262144 frames
	iters := 25
	if testing.Short() {
		iters = 5
	}
	pages := 4 << 20 / PageSize

	parents := make([]*Space, 3)
	for i := range parents {
		p, err := NewSpace(m, DomID(1+i), pages, nil)
		if err != nil {
			t.Fatal(err)
		}
		parents[i] = p
		buf := []byte("restride under fire")
		for pfn := 0; pfn < pages; pfn += 64 {
			if err := p.Write(PFN(pfn), 0, buf, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	// Eager clone/release rounds on two parents.
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				child, _, err := parents[p].CloneOp(obs.OpCtx{}, DomID(100+10*p+i%5), false, CloneEager)
				if err != nil {
					t.Error(err)
					return
				}
				if err := child.Release(); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	// Lazy clones with racing demand faults on the third parent.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 8)
		for i := 0; i < iters; i++ {
			ctx := obs.Ctx(vclock.NewMeter(nil))
			child, _, err := parents[2].CloneOp(ctx, DomID(200+i%5), false, CloneLazy)
			if err != nil {
				t.Error(err)
				return
			}
			for pfn := 0; pfn < pages; pfn += 97 {
				if err := child.Read(PFN(pfn), 0, buf); err != nil {
					t.Error(err)
					return
				}
			}
			if _, _, err := child.WaitLazy(); err != nil {
				t.Error(err)
				return
			}
			if err := child.Release(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// The re-strider, cycling every legal count.
	wg.Add(1)
	go func() {
		defer wg.Done()
		counts := []int{2, 32, 8, 1, 16, 4}
		for i := 0; i < iters*2; i++ {
			if err := m.Restride(counts[i%len(counts)]); err != nil {
				t.Errorf("Restride: %v", err)
				return
			}
		}
	}()
	// Aggregate readers riding the seqlock against layout swaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters*4; i++ {
			if m.FreeFrames() < 0 || m.SharedFrames() < 0 {
				t.Error("negative aggregate counter")
				return
			}
			m.UsedBy(DomIDCOW)
		}
	}()
	wg.Wait()

	used := 0
	for i := range parents {
		if err := parents[i].Release(); err != nil {
			t.Fatal(err)
		}
		used += m.UsedBy(DomID(1 + i))
	}
	if used != 0 {
		t.Fatalf("parents still charged for %d frames after release", used)
	}
	if got := m.FreeFrames(); got != m.TotalFrames() {
		t.Fatalf("stress leaked %d frames", m.TotalFrames()-got)
	}
	if got := m.SharedFrames(); got != 0 {
		t.Fatalf("stress left %d shared frames", got)
	}
}

// TestRestrideMetrics: the opt-in registry sees completed re-strides only.
func TestRestrideMetrics(t *testing.T) {
	m := New(65536 * PageSize)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	if err := m.Restride(8); err != nil {
		t.Fatal(err)
	}
	if err := m.Restride(8); err != nil { // no-op: not counted
		t.Fatal(err)
	}
	if err := m.Restride(16); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("mem.restride.count").Value(); got != 2 {
		t.Fatalf("mem.restride.count = %d, want 2", got)
	}
}

func init() {
	// Guard against MaxShards drifting without the mask arithmetic: the
	// uint32 shard masks cap the count at 32.
	if MaxShards > 32 {
		panic(fmt.Sprintf("MaxShards = %d exceeds uint32 mask capacity", MaxShards))
	}
}
