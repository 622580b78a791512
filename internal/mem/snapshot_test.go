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

// TestSnapshotFramesSlab: a capture costs the same number of allocations
// whatever its page count (one slot slice, one slab), every page is capped
// at PageSize so an append reallocates instead of running into the next
// page, and neither side of the copy aliases the other.
func TestSnapshotFramesSlab(t *testing.T) {
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
	if a, b := allocs(small), allocs(large); a != b || b > 2 {
		t.Fatalf("SnapshotFrames allocs: %v for %d frames, %v for %d frames; want the same constant <= 2",
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

	// An append to one page must not write into its slab neighbour.
	next := append([]byte(nil), pages[2]...)
	grown := append(pages[0], 0xff)
	if &grown[0] == &pages[0][0] || !bytes.Equal(pages[2], next) {
		t.Fatal("append to a snapshot page grew in place over the next page")
	}
	// Snapshot pages are copies: changing one leaves the frame alone, and
	// a later write to the frame leaves the snapshot alone.
	pages[0][0] = 0x77
	buf := make([]byte, 1)
	if err := m.Read(large[0], 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatalf("frame reads %#x after its snapshot page changed", buf[0])
	}
	if err := m.Write(large[2], 0, []byte{0x55}); err != nil {
		t.Fatal(err)
	}
	if pages[2][0] != 2 {
		t.Fatalf("snapshot page reads %#x after its frame was rewritten", pages[2][0])
	}
}
