package toolstack

import (
	"bytes"
	"testing"
)

// testPage is a 4 KiB page whose every byte differs from its neighbours.
func testPage() []byte {
	p := make([]byte, 4096)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	return p
}

// TestHashRunPinned pins hashRun's chaining (count, then per slot a
// presence marker and the page bytes) so a change to the run encoding,
// which would silently re-key every cache and stream, fails here.
func TestHashRunPinned(t *testing.T) {
	p := testPage()
	run := [][]byte{p, nil, bytes.Repeat([]byte{0x5a}, len(p))}
	if got, want := hashRun(run), uint64(0x0fe9f7d10812d78e); got != want {
		t.Fatalf("hashRun = %#x, want %#x", got, want)
	}
	if hashRun(run[:1]) == hashRun(run[:2]) {
		t.Fatal("a trailing absent slot does not change the run hash")
	}
	if hashRun([][]byte{nil}) == hashRun([][]byte{make([]byte, len(p))}) {
		t.Fatal("an absent slot hashes like a stored zero page")
	}
}

// TestHashRunSeesEveryByte: flipping any single byte of a 4 KiB page
// changes its run's hash.
func TestHashRunSeesEveryByte(t *testing.T) {
	p := testPage()
	run := [][]byte{nil, p}
	base := hashRun(run)
	for i := range p {
		p[i] ^= 0xff
		if hashRun(run) == base {
			t.Fatalf("flipping byte %d leaves the run hash unchanged", i)
		}
		p[i] ^= 0xff
	}
}

// TestAllZero: the word-at-a-time scan finds a set byte at every offset,
// including the sub-word tail.
func TestAllZero(t *testing.T) {
	for n := 0; n <= 40; n++ {
		b := make([]byte, n)
		if !allZero(b) {
			t.Fatalf("allZero(%d zero bytes) = false", n)
		}
		for i := range b {
			b[i] = 1
			if allZero(b) {
				t.Fatalf("allZero with byte %d of %d set = true", i, n)
			}
			b[i] = 0
		}
	}
}
