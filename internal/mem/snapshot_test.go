package mem

import (
	"bytes"
	"testing"
)

// writtenFrames allocates n frames for domain 1 and writes a distinct
// stamp into every other one, so the capture sees present and
// never-written frames interleaved.
func writtenFrames(t testing.TB, m *Memory, n int) []MFN {
	t.Helper()
	mfns, err := m.AllocN(1, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, mfn := range mfns {
		if i%2 == 0 {
			if err := m.Write(mfn, 0, []byte{byte(i), byte(i >> 8), 0xa5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return mfns
}

// frameBytes reads a whole frame.
func frameBytes(t *testing.T, m *Memory, mfn MFN) []byte {
	t.Helper()
	buf := make([]byte, PageSize)
	if err := m.Read(mfn, 0, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// snapshotOne captures one frame, failing when it has never been written.
func snapshotOne(t *testing.T, m *Memory, mfn MFN) []byte {
	t.Helper()
	pages, err := m.SnapshotFrames([]MFN{mfn})
	if err != nil {
		t.Fatal(err)
	}
	if pages[0] == nil {
		t.Fatalf("frame %d captured as never written", mfn)
	}
	return pages[0]
}

// TestSnapshotFramesZeroCopy: a capture allocates only its slot slice
// whatever its page count, hands out each frame's own buffer capped at
// PageSize, and a taken snapshot never changes afterwards — whichever
// store path next reaches the frame. Install shares the same contract for
// the pages it adopts.
func TestSnapshotFramesZeroCopy(t *testing.T) {
	m := newTestMem(1024)
	small := writtenFrames(t, m, 4)
	large := writtenFrames(t, m, 512)

	allocs := func(mfns []MFN) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := m.SnapshotFrames(mfns); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b || b > 1 {
		t.Fatalf("SnapshotFrames allocs: %v for %d frames, %v for %d frames; want the same constant <= 1",
			a, len(small), b, len(large))
	}

	pages, err := m.SnapshotFrames(large)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pages {
		if i%2 == 1 {
			if p != nil {
				t.Fatalf("never-written frame %d captured as %d bytes", i, len(p))
			}
			continue
		}
		if len(p) != PageSize || cap(p) != PageSize {
			t.Fatalf("page %d: len %d cap %d, want both %d", i, len(p), cap(p), PageSize)
		}
		if p[0] != byte(i) || p[1] != byte(i>>8) || p[2] != 0xa5 {
			t.Fatalf("page %d: stamp % x", i, p[:3])
		}
	}

	// Every store path into a captured frame leaves the snapshot alone.
	check := func(what string, snap, want []byte) {
		t.Helper()
		if !bytes.Equal(snap, want) {
			t.Fatalf("snapshot page changed after %s: % x, want % x", what, snap[:4], want[:4])
		}
	}
	full := bytes.Repeat([]byte{0xee}, PageSize)
	for _, tc := range []struct {
		name  string
		store func(mfn MFN)
	}{
		{"a partial Write", func(mfn MFN) {
			if err := m.Write(mfn, 1, []byte{0x55, 0x56}); err != nil {
				t.Fatal(err)
			}
		}},
		{"a full Write", func(mfn MFN) {
			if err := m.Write(mfn, 0, full); err != nil {
				t.Fatal(err)
			}
		}},
		{"CopyFrameN onto the frame", func(mfn MFN) {
			if err := m.CopyFrameN([]MFN{mfn}, []MFN{large[0]}, nil); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		mfn := large[2]
		snap := snapshotOne(t, m, mfn)
		want := append([]byte(nil), snap...)
		tc.store(mfn)
		check(tc.name, snap, want)
		if bytes.Equal(frameBytes(t, m, mfn), want) {
			t.Fatalf("%s did not reach the frame", tc.name)
		}
	}

	// A COW break of a shared frame: the faulting sharer copies away, and
	// the last sharer inherits the frozen frame and clones on its write.
	mfn := large[4]
	snap := snapshotOne(t, m, mfn)
	want := append([]byte(nil), snap...)
	if err := m.Share(1, mfn, 2, nil); err != nil {
		t.Fatal(err)
	}
	priv, err := m.CopyOnWrite(2, mfn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(priv, 0, []byte{0x11}); err != nil {
		t.Fatal(err)
	}
	last, err := m.CopyOnWrite(1, mfn, nil)
	if err != nil || last != mfn {
		t.Fatalf("last sharer: frame %d, %v; want %d", last, err, mfn)
	}
	if err := m.Write(last, 0, []byte{0x22}); err != nil {
		t.Fatal(err)
	}
	check("a COW break", snap, want)

	// Free → realloc → Write: the recycled frame starts over.
	mfn = large[6]
	snap = snapshotOne(t, m, mfn)
	want = append([]byte(nil), snap...)
	if err := m.Free(1, mfn); err != nil {
		t.Fatal(err)
	}
	again, err := m.Alloc(1, nil)
	if err != nil || again != mfn {
		t.Fatalf("realloc: frame %d, %v; want the recycled %d", again, err, mfn)
	}
	if err := m.Write(again, 0, full); err != nil {
		t.Fatal(err)
	}
	check("Free, realloc and Write", snap, want)

	// Install adopts a full page as the frame's buffer and copies a short
	// one; a later write to the frame clones it, so the installed page
	// never changes.
	mfns, err := m.AllocN(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0x3c}, PageSize)
	if err := m.Install(mfns[0], page); err != nil {
		t.Fatal(err)
	}
	if snap := snapshotOne(t, m, mfns[0]); &snap[0] != &page[0] {
		t.Fatal("a full page was copied, not aliased")
	}
	short := []byte{1, 2, 3}
	if err := m.Install(mfns[1], short); err != nil {
		t.Fatal(err)
	}
	got := frameBytes(t, m, mfns[1])
	if !bytes.Equal(got[:3], short) || !bytes.Equal(got[3:], make([]byte, PageSize-3)) {
		t.Fatalf("short page installed as % x…", got[:8])
	}
	if snap := snapshotOne(t, m, mfns[1]); &snap[0] == &short[0] {
		t.Fatal("a short page was aliased")
	}
	if err := m.Install(mfns[1], make([]byte, PageSize+1)); err == nil {
		t.Fatal("an oversized page was installed")
	}

	if err := m.Write(mfns[0], 7, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	if page[7] != 0x3c {
		t.Fatal("a write to an installed frame changed the installed page")
	}
	if got := frameBytes(t, m, mfns[0]); got[7] != 0xff || got[6] != 0x3c {
		t.Fatalf("frame after write: % x", got[4:10])
	}
}
