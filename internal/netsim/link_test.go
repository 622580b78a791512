package netsim

import (
	"reflect"
	"testing"
)

func TestFabricMesh(t *testing.T) {
	f := NewFabric(4, 2)
	if f.Hosts() != 4 || f.Width() != 2 {
		t.Fatalf("fabric %d hosts width %d", f.Hosts(), f.Width())
	}
	ab, err := f.Link(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := f.Link(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ab != ba {
		t.Fatal("Link(1,3) and Link(3,1) are different objects")
	}
	if a, b := ab.Ends(); a != 1 || b != 3 {
		t.Fatalf("Ends = %d,%d", a, b)
	}
	if _, err := f.Link(0, 4); err == nil {
		t.Fatal("out-of-range host accepted")
	}
	if _, err := f.Link(2, 2); err == nil {
		t.Fatal("self link accepted")
	}
}

func TestLinkPlan(t *testing.T) {
	f := NewFabric(2, 2)
	l, err := f.Link(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	chunks := []Chunk{
		{Hash: 0, Pages: 10}, // slave 0
		{Hash: 1, Pages: 6},  // slave 1
		{Hash: 2, Pages: 4},  // slave 0
		{Hash: 3, Pages: 8},  // deduped below
		{Hash: 5, Pages: 0},  // header-only (zero/alias run)
	}
	plan := l.Plan(chunks, func(c Chunk) bool { return c.Hash == 3 })
	l.Commit(plan)
	if plan.Chunks != 5 {
		t.Fatalf("Chunks = %d, want 5", plan.Chunks)
	}
	if plan.Pages != 20 {
		t.Fatalf("Pages = %d, want 20", plan.Pages)
	}
	if plan.DedupPages != 8 {
		t.Fatalf("DedupPages = %d, want 8", plan.DedupPages)
	}
	if plan.SlavePages[0] != 14 || plan.SlavePages[1] != 6 {
		t.Fatalf("SlavePages = %v", plan.SlavePages)
	}
	if plan.MaxSlavePages != 14 {
		t.Fatalf("MaxSlavePages = %d, want 14", plan.MaxSlavePages)
	}
	tr, sent, dedup := l.Stats()
	if tr != 1 || sent != 20 || dedup != 8 {
		t.Fatalf("Stats = %d,%d,%d", tr, sent, dedup)
	}
	// A second identical plan is deterministic; an uncommitted plan (an
	// aborted transfer) leaves the counters alone.
	plan2 := l.Plan(chunks, func(c Chunk) bool { return c.Hash == 3 })
	if plan2.MaxSlavePages != plan.MaxSlavePages || plan2.Pages != plan.Pages {
		t.Fatal("identical transfer planned differently")
	}
	tr, sent, dedup = l.Stats()
	if tr != 1 || sent != 20 || dedup != 8 {
		t.Fatalf("Stats after uncommitted plan = %d,%d,%d", tr, sent, dedup)
	}
	l.Commit(plan2)
	if tr, sent, dedup = l.Stats(); tr != 2 || sent != 40 || dedup != 16 {
		t.Fatalf("Stats after 2nd commit = %d,%d,%d", tr, sent, dedup)
	}
}

func TestLinkPlanWidthOne(t *testing.T) {
	f := NewFabric(2, 0) // clamped to 1
	l, _ := f.Link(0, 1)
	if l.Width() != 1 {
		t.Fatalf("width = %d, want 1 (clamped)", l.Width())
	}
	plan := l.Plan([]Chunk{{Hash: 7, Pages: 5}, {Hash: 8, Pages: 3}}, nil)
	if plan.MaxSlavePages != 8 {
		t.Fatalf("single-slave MaxSlavePages = %d, want 8", plan.MaxSlavePages)
	}
}

// A pageless chunk (a zero or alias run) travels as a header only: its
// hash picks no slave and is never offered to dedup, so whatever hash the
// sender attaches to it, the plan is the one it gets with hash 0.
func TestLinkPlanIgnoresPagelessHash(t *testing.T) {
	f := NewFabric(2, 3)
	l, err := f.Link(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	withHeaders := func(h uint64) []Chunk {
		return []Chunk{
			{Hash: h, Pages: 0},
			{Hash: 10, Pages: 7},
			{Hash: h ^ 1, Pages: 0},
			{Hash: 11, Pages: 3},
			{Hash: 12, Pages: 5}, // deduped below
			{Hash: h + 2, Pages: 0},
		}
	}
	dedup := func(c Chunk) bool {
		if c.Pages == 0 {
			t.Errorf("dedup consulted for pageless chunk %+v", c)
		}
		return c.Hash == 12
	}
	want := l.Plan(withHeaders(0), dedup)
	if want.Chunks != 6 || want.Pages != 10 || want.DedupPages != 5 {
		t.Fatalf("plan = %+v", want)
	}
	for _, h := range []uint64{1, 2, 12, 0xdeadbeef, 1<<63 + 5, ^uint64(0)} {
		got := l.Plan(withHeaders(h), dedup)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pageless hash %#x: plan %+v, want %+v", h, got, want)
		}
	}
}
