package toolstack

import (
	"bytes"
	"encoding/binary"
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

// TestXXH64KnownAnswers pins the hash to published XXH64 digests,
// covering every input-length path of the spec: the short path with byte,
// 4-byte and 8-byte tails, and the 32-byte stripe path with and without a
// tail. A different value on any host means the hash is not XXH64 there,
// and every cache key and serialized image would move with it.
func TestXXH64KnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		seed uint64
		want uint64
	}{
		{"", 0, 0xef46db3751d8e999},
		{"a", 0, 0xd24ec4f1a98c6e5b},
		{"abc", 0, 0x44bc2cf5ad770999},
		{"hello, world", 0, 0xb33a384e6d1b1242},
		{"Nobody inspects the spammish repetition", 0, 0xfbcea83c8a378bf1},
		{"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789$", 0, 0x1032d841e824f998},
		{"xxhash", 20141025, 0xb559b98d844e0635},
		{string(testPage()), 0, 0x796398cd432797cc},
	} {
		if got := xxh64([]byte(tc.in), tc.seed); got != tc.want {
			t.Errorf("xxh64(%d bytes %.12q, seed %d) = %#x, want %#x", len(tc.in), tc.in, tc.seed, got, tc.want)
		}
	}
}

// TestXXH64UintIsWordHash: the one-word shortcut equals hashing the
// word's 8 little-endian bytes.
func TestXXH64UintIsWordHash(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0x9E3779B185EBCA87, ^uint64(0)} {
		for _, v := range []uint64{0, 1, 2, 3, 4096, 0x0123456789abcdef, ^uint64(0)} {
			w := binary.LittleEndian.AppendUint64(nil, v)
			if got, want := xxh64Uint(seed, v), xxh64(w, seed); got != want {
				t.Errorf("xxh64Uint(%#x, %#x) = %#x, want %#x", seed, v, got, want)
			}
		}
	}
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
