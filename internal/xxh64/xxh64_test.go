package xxh64

import (
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
		if got := Sum([]byte(tc.in), tc.seed); got != tc.want {
			t.Errorf("Sum(%d bytes %.12q, seed %d) = %#x, want %#x", len(tc.in), tc.in, tc.seed, got, tc.want)
		}
	}
}

// TestXXH64UintIsWordHash: the one-word shortcut equals hashing the
// word's 8 little-endian bytes.
func TestXXH64UintIsWordHash(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0x9E3779B185EBCA87, ^uint64(0)} {
		for _, v := range []uint64{0, 1, 2, 3, 4096, 0x0123456789abcdef, ^uint64(0)} {
			w := binary.LittleEndian.AppendUint64(nil, v)
			if got, want := Uint(seed, v), Sum(w, seed); got != want {
				t.Errorf("Uint(%#x, %#x) = %#x, want %#x", seed, v, got, want)
			}
		}
	}
}
