package mem

import (
	"bytes"
	"errors"
	"testing"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// populateRig builds a cache-owner frame run (written, then transferred to
// dom_cow with the cache's own reference) plus a target space, the exact
// shape of a cached restore.
func populateRig(t *testing.T, frames, pages, run int) (*Memory, *Space, []MFN) {
	t.Helper()
	m := newTestMem(frames)
	mfns, err := m.AllocN(DomIDCache, run, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, mfn := range mfns {
		if err := m.Write(mfn, 0, []byte{byte('a' + i%26)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ShareN(DomIDCache, mfns, 1, nil); err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpace(m, 7, pages, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, sp, mfns
}

// shareExtent is an extent sharing frames at start, with no bytes to copy.
func shareExtent(start PFN, mfns []MFN) Extent {
	return Extent{Start: start, Data: make([][]byte, len(mfns)), Frames: mfns}
}

func TestPopulateInstallsCOWMappings(t *testing.T) {
	m, sp, mfns := populateRig(t, 256, 16, 8)
	free := m.FreeFrames()
	meter := vclock.NewMeter(nil)
	shared, err := sp.Populate(obs.Ctx(meter), DomIDCache, []Extent{shareExtent(4, mfns)})
	if err != nil || shared != 8 {
		t.Fatalf("Populate = %d, %v; want 8 shared", shared, err)
	}
	// The 8 displaced private frames were freed; no new frames allocated.
	if got := m.FreeFrames(); got != free+8 {
		t.Fatalf("FreeFrames = %d, want %d", got, free+8)
	}
	for i, want := range mfns {
		pfn := PFN(4 + i)
		mfn, err := sp.MFNOf(pfn)
		if err != nil || mfn != want {
			t.Fatalf("pfn %d -> mfn %d (err %v), want %d", pfn, mfn, err, want)
		}
		if cow, _ := sp.IsCOW(pfn); !cow {
			t.Fatalf("pfn %d not COW after adopt", pfn)
		}
		if rc, _ := m.Refcount(want); rc != 2 {
			t.Fatalf("refcount(%d) = %d, want 2 (cache + child)", want, rc)
		}
		var buf [1]byte
		if err := sp.Read(pfn, 0, buf[:]); err != nil {
			t.Fatal(err)
		}
		if want := byte('a' + i%26); buf[0] != want {
			t.Fatalf("pfn %d reads %q, want %q", pfn, buf[0], want)
		}
	}
	// Sharing charges PTE + p2m rewrites, never page copies.
	want := meter.Costs().PTEntryClone*vclock.Duration(8) + meter.Costs().P2MEntryClone*vclock.Duration(8)
	if meter.Elapsed() != want {
		t.Fatalf("elapsed = %v, want %v", meter.Elapsed(), want)
	}
}

func TestPopulateWriteBreaksCOW(t *testing.T) {
	m, sp, mfns := populateRig(t, 256, 16, 4)
	if _, err := sp.Populate(obs.OpCtx{}, DomIDCache, []Extent{shareExtent(0, mfns)}); err != nil {
		t.Fatal(err)
	}
	if err := sp.Write(1, 0, []byte("dirty"), nil); err != nil {
		t.Fatal(err)
	}
	// The child privatized its copy; the cache frame is untouched.
	var buf [5]byte
	if err := m.Read(mfns[1], 0, buf[:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:1], []byte{'b'}) {
		t.Fatalf("cache frame mutated: %q", buf[:])
	}
	if rc, _ := m.Refcount(mfns[1]); rc != 1 {
		t.Fatalf("refcount after COW break = %d, want 1 (cache only)", rc)
	}
	if err := sp.Read(1, 0, buf[:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:], []byte("dirty")) {
		t.Fatalf("child reads %q", buf[:])
	}
}

func TestPopulateReleaseDropsCacheRefs(t *testing.T) {
	m, sp, mfns := populateRig(t, 256, 16, 4)
	if _, err := sp.Populate(obs.OpCtx{}, DomIDCache, []Extent{shareExtent(0, mfns)}); err != nil {
		t.Fatal(err)
	}
	if err := sp.Release(); err != nil {
		t.Fatal(err)
	}
	for _, mfn := range mfns {
		if rc, _ := m.Refcount(mfn); rc != 1 {
			t.Fatalf("refcount(%d) = %d after child release, want 1", mfn, rc)
		}
	}
	// Dropping the cache's own reference frees everything.
	if err := m.ReleaseN(DomIDCache, mfns); err != nil {
		t.Fatal(err)
	}
	if got, want := m.FreeFrames(), m.TotalFrames(); got != want {
		t.Fatalf("FreeFrames = %d, want %d", got, want)
	}
}

// poolUntouched fails the test unless the free count and every cache
// frame's refcount are as populateRig left them.
func poolUntouched(t *testing.T, m *Memory, free int, mfns []MFN) {
	t.Helper()
	if got := m.FreeFrames(); got != free {
		t.Fatalf("failed populate moved frames: %d -> %d", free, got)
	}
	for _, mfn := range mfns {
		if rc, _ := m.Refcount(mfn); rc != 1 {
			t.Fatalf("failed populate bumped refcount(%d) = %d", mfn, rc)
		}
	}
}

func TestPopulateValidationLeavesPoolUntouched(t *testing.T) {
	m, sp, mfns := populateRig(t, 256, 16, 4)
	free := m.FreeFrames()
	// Out of range.
	if _, err := sp.Populate(obs.OpCtx{}, DomIDCache, []Extent{shareExtent(14, mfns)}); !errors.Is(err, ErrBadPFN) {
		t.Fatalf("out-of-range populate: %v", err)
	}
	// Frames not parallel to the bytes.
	bad := Extent{Start: 0, Data: make([][]byte, 3), Frames: mfns}
	if _, err := sp.Populate(obs.OpCtx{}, DomIDCache, []Extent{bad}); err == nil {
		t.Fatal("populate with 4 frames for 3 pages succeeded")
	}
	// Overlapping extents.
	if _, err := sp.Populate(obs.OpCtx{}, DomIDCache, []Extent{shareExtent(0, mfns[:2]), shareExtent(1, mfns[2:])}); err == nil {
		t.Fatal("populate with overlapping extents succeeded")
	}
	// More bytes than a page.
	big := Extent{Start: 0, Data: [][]byte{make([]byte, PageSize+1)}}
	if _, err := sp.Populate(obs.OpCtx{}, DomIDCache, []Extent{big}); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("oversized page: %v", err)
	}
	poolUntouched(t, m, free, mfns)
	// Retired space.
	if err := sp.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Populate(obs.OpCtx{}, DomIDCache, []Extent{shareExtent(0, mfns)}); !errors.Is(err, ErrSpaceRetired) {
		t.Fatalf("populate on retired space: %v", err)
	}
}

// TestPopulateBadSecondExtentLeavesFirstUntouched: validation covers every
// extent before the first one is mutated.
func TestPopulateBadSecondExtentLeavesFirstUntouched(t *testing.T) {
	m, sp, mfns := populateRig(t, 256, 16, 4)
	free := m.FreeFrames()
	before, _ := sp.MFNOf(0)
	if err := sp.SetWritable(9, false); err != nil {
		t.Fatal(err)
	}
	extents := []Extent{
		shareExtent(0, mfns[:2]),
		{Start: 8, Data: [][]byte{[]byte("ok"), []byte("read-only")}},
	}
	if _, err := sp.Populate(obs.OpCtx{}, DomIDCache, extents); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("populate over a read-only page: %v", err)
	}
	if mfn, _ := sp.MFNOf(0); mfn != before {
		t.Fatalf("pfn 0 remapped to %d by a failed populate", mfn)
	}
	if cow, _ := sp.IsCOW(0); cow {
		t.Fatal("pfn 0 COW after a failed populate")
	}
	var buf [2]byte
	if err := sp.Read(8, 0, buf[:]); err != nil || buf != [2]byte{} {
		t.Fatalf("pfn 8 written by a failed populate: %q (%v)", buf[:], err)
	}
	poolUntouched(t, m, free, mfns)
}

// TestPopulateCopiesSpecialPages: an extent with frames that covers a
// Xen-special page shares the regular entries and copies the special
// page's bytes into its own private frame.
func TestPopulateCopiesSpecialPages(t *testing.T) {
	m, sp, mfns := populateRig(t, 256, 16, 3)
	if err := sp.SetKind(3, KindStartInfo); err != nil {
		t.Fatal(err)
	}
	private, _ := sp.MFNOf(3)
	free := m.FreeFrames()
	meter := vclock.NewMeter(nil)
	ext := Extent{Start: 2, Data: [][]byte{nil, []byte("start_info"), nil}, Frames: mfns}
	shared, err := sp.Populate(obs.Ctx(meter), DomIDCache, []Extent{ext})
	if err != nil || shared != 2 {
		t.Fatalf("Populate = %d, %v; want 2 shared", shared, err)
	}
	if mfn, _ := sp.MFNOf(3); mfn != private {
		t.Fatalf("start_info page remapped to %d, want its private %d", mfn, private)
	}
	if cow, _ := sp.IsCOW(3); cow {
		t.Fatal("start_info page COW-shared")
	}
	buf := make([]byte, 10)
	if err := sp.Read(3, 0, buf); err != nil || string(buf) != "start_info" {
		t.Fatalf("start_info page reads %q (%v)", buf, err)
	}
	if rc, _ := m.Refcount(mfns[1]); rc != 1 {
		t.Fatalf("skipped cache frame refcount = %d, want 1", rc)
	}
	for _, i := range []int{0, 2} {
		if mfn, _ := sp.MFNOf(PFN(2 + i)); mfn != mfns[i] {
			t.Fatalf("pfn %d -> %d, want shared %d", 2+i, mfn, mfns[i])
		}
	}
	if got := m.FreeFrames(); got != free+2 {
		t.Fatalf("FreeFrames = %d, want %d", got, free+2)
	}
	want := meter.Costs().PTEntryClone*vclock.Duration(2) + meter.Costs().P2MEntryClone*vclock.Duration(2)
	if meter.Elapsed() != want {
		t.Fatalf("elapsed = %v, want %v (copies are free)", meter.Elapsed(), want)
	}
}

// TestPopulateBytesOnlyCopies: extents without frames copy into the
// entries' own frames, skip nil slots and charge nothing.
func TestPopulateBytesOnlyCopies(t *testing.T) {
	m, sp, _ := populateRig(t, 256, 16, 1)
	before, _ := sp.MFNOf(5)
	free := m.FreeFrames()
	meter := vclock.NewMeter(nil)
	ext := Extent{Start: 4, Data: [][]byte{nil, bytes.Repeat([]byte{7}, PageSize)}}
	shared, err := sp.Populate(obs.Ctx(meter), DomIDCache, []Extent{ext})
	if err != nil || shared != 0 {
		t.Fatalf("Populate = %d, %v; want 0 shared", shared, err)
	}
	if mfn, _ := sp.MFNOf(5); mfn != before {
		t.Fatalf("copy remapped pfn 5 to %d", mfn)
	}
	buf := make([]byte, PageSize)
	if err := sp.Read(5, 0, buf); err != nil || !bytes.Equal(buf, ext.Data[1]) {
		t.Fatalf("pfn 5 reads %d.. (%v)", buf[0], err)
	}
	if m.FreeFrames() != free || meter.Elapsed() != 0 {
		t.Fatalf("bytes-only populate: free %d -> %d, elapsed %v", free, m.FreeFrames(), meter.Elapsed())
	}
}
