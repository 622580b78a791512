package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"nephele/internal/vclock"
)

func newTestMem(frames int) *Memory {
	return New(uint64(frames) * PageSize)
}

func TestAllocFree(t *testing.T) {
	m := newTestMem(8)
	meter := vclock.NewMeter(nil)
	mfn, err := m.Alloc(1, meter)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if got := m.FreeFrames(); got != 7 {
		t.Fatalf("FreeFrames = %d, want 7", got)
	}
	if got := m.UsedBy(1); got != 1 {
		t.Fatalf("UsedBy(1) = %d, want 1", got)
	}
	if owner, _ := m.Owner(mfn); owner != 1 {
		t.Fatalf("Owner = %d, want 1", owner)
	}
	if err := m.Free(1, mfn); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if got := m.FreeFrames(); got != 8 {
		t.Fatalf("after Free FreeFrames = %d, want 8", got)
	}
	if got := m.UsedBy(1); got != 0 {
		t.Fatalf("after Free UsedBy(1) = %d, want 0", got)
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := newTestMem(2)
	if _, err := m.AllocN(1, 3, nil); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("AllocN beyond capacity: err = %v, want ErrOutOfMemory", err)
	}
	// Failed AllocN must not leak frames.
	if got := m.FreeFrames(); got != 2 {
		t.Fatalf("FreeFrames after failed AllocN = %d, want 2", got)
	}
	if _, err := m.AllocN(1, 2, nil); err != nil {
		t.Fatalf("AllocN exact capacity: %v", err)
	}
	if _, err := m.Alloc(1, nil); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Alloc when full: err = %v, want ErrOutOfMemory", err)
	}
}

func TestFreeWrongOwner(t *testing.T) {
	m := newTestMem(2)
	mfn, _ := m.Alloc(1, nil)
	if err := m.Free(2, mfn); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("Free by non-owner: err = %v, want ErrNotOwner", err)
	}
}

func TestDoubleFree(t *testing.T) {
	m := newTestMem(2)
	mfn, _ := m.Alloc(1, nil)
	if err := m.Free(1, mfn); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(1, mfn); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free: err = %v, want ErrDoubleFree", err)
	}
}

func TestReadZeroPage(t *testing.T) {
	m := newTestMem(1)
	mfn, _ := m.Alloc(1, nil)
	buf := []byte{1, 2, 3}
	if err := m.Read(mfn, 100, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d of untouched frame = %d, want 0", i, b)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := newTestMem(1)
	mfn, _ := m.Alloc(1, nil)
	want := []byte("nephele")
	if err := m.Write(mfn, 42, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := m.Read(mfn, 42, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
}

func TestAccessCrossingPageBoundary(t *testing.T) {
	m := newTestMem(1)
	mfn, _ := m.Alloc(1, nil)
	buf := make([]byte, 8)
	if err := m.Write(mfn, PageSize-4, buf); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("cross-boundary write: err = %v, want ErrBadOffset", err)
	}
	if err := m.Read(mfn, -1, buf); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("negative-offset read: err = %v, want ErrBadOffset", err)
	}
}

func TestShareTransfersOwnershipToDomCOW(t *testing.T) {
	m := newTestMem(2)
	mfn, _ := m.Alloc(1, nil)
	if err := m.Share(1, mfn, 2, nil); err != nil {
		t.Fatal(err)
	}
	if owner, _ := m.Owner(mfn); owner != DomIDCOW {
		t.Fatalf("owner after Share = %d, want dom_cow", owner)
	}
	if rc, _ := m.Refcount(mfn); rc != 2 {
		t.Fatalf("refcount = %d, want 2", rc)
	}
	if m.SharedFrames() != 1 {
		t.Fatalf("SharedFrames = %d, want 1", m.SharedFrames())
	}
	if m.UsedBy(1) != 0 {
		t.Fatalf("UsedBy(1) after share = %d, want 0", m.UsedBy(1))
	}
}

func TestShareByNonOwnerFails(t *testing.T) {
	m := newTestMem(1)
	mfn, _ := m.Alloc(1, nil)
	if err := m.Share(9, mfn, 2, nil); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("Share by non-owner: err = %v, want ErrNotOwner", err)
	}
}

func TestCopyOnWriteWithSharersCopies(t *testing.T) {
	m := newTestMem(4)
	mfn, _ := m.Alloc(1, nil)
	if err := m.Write(mfn, 0, []byte("parent data")); err != nil {
		t.Fatal(err)
	}
	if err := m.Share(1, mfn, 2, nil); err != nil {
		t.Fatal(err)
	}
	newMFN, err := m.CopyOnWrite(2, mfn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if newMFN == mfn {
		t.Fatal("CopyOnWrite with 2 sharers returned the shared frame")
	}
	// Contents must have been copied.
	got := make([]byte, 11)
	if err := m.Read(newMFN, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "parent data" {
		t.Fatalf("copied frame contents = %q", got)
	}
	if owner, _ := m.Owner(newMFN); owner != 2 {
		t.Fatalf("new frame owner = %d, want 2", owner)
	}
	if rc, _ := m.Refcount(mfn); rc != 1 {
		t.Fatalf("shared frame refcount after fault = %d, want 1", rc)
	}
}

func TestCopyOnWriteLastSharerTransfersOwnership(t *testing.T) {
	// §5.2: when the refcount reaches one, the next fault transfers
	// ownership from dom_cow to the faulting domain, which may differ
	// from the original owner.
	m := newTestMem(4)
	mfn, _ := m.Alloc(1, nil)
	m.Write(mfn, 0, []byte("x"))
	if err := m.Share(1, mfn, 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CopyOnWrite(1, mfn, nil); err != nil { // parent faults, copies
		t.Fatal(err)
	}
	got, err := m.CopyOnWrite(2, mfn, nil) // child is last sharer
	if err != nil {
		t.Fatal(err)
	}
	if got != mfn {
		t.Fatalf("last-sharer fault allocated a copy (%d), want ownership transfer of %d", got, mfn)
	}
	if owner, _ := m.Owner(mfn); owner != 2 {
		t.Fatalf("owner after last-sharer fault = %d, want 2 (the faulting domain)", owner)
	}
	if m.SharedFrames() != 0 {
		t.Fatalf("SharedFrames = %d, want 0", m.SharedFrames())
	}
}

func TestCopyOnWriteUnsharedFrameFails(t *testing.T) {
	m := newTestMem(1)
	mfn, _ := m.Alloc(1, nil)
	if _, err := m.CopyOnWrite(1, mfn, nil); !errors.Is(err, ErrNotShared) {
		t.Fatalf("CopyOnWrite on private frame: err = %v, want ErrNotShared", err)
	}
}

func TestDropSharedFreesAtZero(t *testing.T) {
	m := newTestMem(1)
	mfn, _ := m.Alloc(1, nil)
	m.Share(1, mfn, 2, nil)
	if err := m.DropShared(mfn); err != nil {
		t.Fatal(err)
	}
	if m.FreeFrames() != 0 {
		t.Fatal("frame freed too early")
	}
	if err := m.DropShared(mfn); err != nil {
		t.Fatal(err)
	}
	if m.FreeFrames() != 1 {
		t.Fatal("frame not freed when last sharer dropped")
	}
}

func TestAddSharer(t *testing.T) {
	m := newTestMem(1)
	mfn, _ := m.Alloc(1, nil)
	m.Share(1, mfn, 2, nil)
	if err := m.AddSharer(mfn, 3); err != nil {
		t.Fatal(err)
	}
	if rc, _ := m.Refcount(mfn); rc != 5 {
		t.Fatalf("refcount = %d, want 5", rc)
	}
	mfn2, _ := m.Alloc(1, nil)
	_ = mfn2
}

func TestShareAlreadySharedAddsRefs(t *testing.T) {
	m := newTestMem(1)
	mfn, _ := m.Alloc(1, nil)
	m.Share(1, mfn, 2, nil)
	// Cloning a clone re-shares the same frame: refs-1 new sharers.
	if err := m.Share(2, mfn, 2, nil); err != nil {
		t.Fatal(err)
	}
	if rc, _ := m.Refcount(mfn); rc != 3 {
		t.Fatalf("refcount = %d, want 3", rc)
	}
}

func TestCopyFrame(t *testing.T) {
	m := newTestMem(2)
	a, _ := m.Alloc(1, nil)
	b, _ := m.Alloc(1, nil)
	m.Write(a, 8, []byte("copy me"))
	meter := vclock.NewMeter(nil)
	if err := m.CopyFrame(b, a, meter); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	m.Read(b, 8, got)
	if string(got) != "copy me" {
		t.Fatalf("copied contents = %q", got)
	}
	if meter.Elapsed() != meter.Costs().PageCopy {
		t.Fatalf("meter charged %v, want one PageCopy (%v)", meter.Elapsed(), meter.Costs().PageCopy)
	}
}

func TestAccountingInvariantProperty(t *testing.T) {
	// Property: after any sequence of alloc/free/share/fault operations,
	// used + free == total and per-domain counts sum to used.
	f := func(ops []uint8) bool {
		m := newTestMem(32)
		var owned []MFN  // frames owned by dom 1
		var shared []MFN // frames owned by dom_cow
		for _, op := range ops {
			switch op % 4 {
			case 0:
				if mfn, err := m.Alloc(1, nil); err == nil {
					owned = append(owned, mfn)
				}
			case 1:
				if len(owned) > 0 {
					mfn := owned[len(owned)-1]
					owned = owned[:len(owned)-1]
					if err := m.Free(1, mfn); err != nil {
						return false
					}
				}
			case 2:
				if len(owned) > 0 {
					mfn := owned[len(owned)-1]
					owned = owned[:len(owned)-1]
					if err := m.Share(1, mfn, 2, nil); err != nil {
						return false
					}
					shared = append(shared, mfn)
				}
			case 3:
				if len(shared) > 0 {
					mfn := shared[len(shared)-1]
					if newMFN, err := m.CopyOnWrite(2, mfn, nil); err == nil {
						if newMFN == mfn {
							shared = shared[:len(shared)-1]
						}
						// Either way dom 2 now owns a frame;
						// leave it allocated.
					}
				}
			}
			total := m.TotalFrames()
			free := m.FreeFrames()
			used := 0
			for _, d := range []DomID{1, 2, DomIDCOW} {
				used += m.UsedBy(d)
			}
			if used+free != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestShareNDuplicateFrameChargesOnce: a frame listed twice in one ShareN
// is transferred and charged once, then gains references, exactly as two
// calls would treat it.
func TestShareNDuplicateFrameChargesOnce(t *testing.T) {
	m := newTestMem(16)
	mfns, err := m.AllocN(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	meter := vclock.NewMeter(nil)
	if err := m.ShareN(1, []MFN{mfns[0], mfns[1], mfns[0]}, 2, meter); err != nil {
		t.Fatal(err)
	}
	if want := meter.Costs().PageShare * 2; meter.Elapsed() != want {
		t.Fatalf("elapsed = %v, want %v (two transfers)", meter.Elapsed(), want)
	}
	if rc, _ := m.Refcount(mfns[0]); rc != 3 {
		t.Fatalf("refcount of the repeated frame = %d, want 3", rc)
	}
	if rc, _ := m.Refcount(mfns[1]); rc != 2 {
		t.Fatalf("refcount = %d, want 2", rc)
	}
	if got := m.SharedFrames(); got != 2 {
		t.Fatalf("SharedFrames = %d, want 2", got)
	}
}
