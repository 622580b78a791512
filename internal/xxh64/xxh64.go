// Package xxh64 is XXH64 (the public xxHash 64-bit specification) on the
// standard library alone. It is not hash/maphash, whose seed changes per
// process: content keys built on it are stable across runs and across
// hosts — a serialized image reloaded tomorrow must hit the same cache
// entry it populated today. Input words are read little-endian whatever
// the host byte order, and the hash consumes a 32-byte stripe per step
// across four independent lanes, which is what keeps rehashing a whole
// image per save affordable.
package xxh64

import (
	"encoding/binary"
	"math/bits"
)

const (
	prime1 uint64 = 0x9E3779B185EBCA87
	prime2 uint64 = 0xC2B2AE3D27D4EB4F
	prime3 uint64 = 0x165667B19E3779F9
	prime4 uint64 = 0x85EBCA77C2B2AE63
	prime5 uint64 = 0x27D4EB2F165667C5
)

// Sum returns the XXH64 digest of b under seed.
func Sum(b []byte, seed uint64) uint64 {
	n := len(b)
	var h uint64
	if n >= 32 {
		v1 := seed + prime1 + prime2
		v2 := seed + prime2
		v3 := seed
		v4 := seed - prime1
		for len(b) >= 32 {
			v1 = round(v1, binary.LittleEndian.Uint64(b[0:8]))
			v2 = round(v2, binary.LittleEndian.Uint64(b[8:16]))
			v3 = round(v3, binary.LittleEndian.Uint64(b[16:24]))
			v4 = round(v4, binary.LittleEndian.Uint64(b[24:32]))
			b = b[32:]
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = merge(h, v1)
		h = merge(h, v2)
		h = merge(h, v3)
		h = merge(h, v4)
	} else {
		h = seed + prime5
	}
	h += uint64(n)
	for ; len(b) >= 8; b = b[8:] {
		h = word(h, binary.LittleEndian.Uint64(b))
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b)) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}
	return avalanche(h)
}

// Uint returns Sum of v's 8 little-endian bytes under seed without
// materializing them: the spec's short-input path for exactly one word.
// Chaining it through the seed folds geometry and presence markers into a
// hash.
func Uint(seed, v uint64) uint64 {
	return avalanche(word(seed+prime5+8, v))
}

func round(acc, in uint64) uint64 {
	acc += in * prime2
	return bits.RotateLeft64(acc, 31) * prime1
}

func merge(h, v uint64) uint64 {
	h ^= round(0, v)
	return h*prime1 + prime4
}

func word(h, w uint64) uint64 {
	h ^= round(0, w)
	return bits.RotateLeft64(h, 27)*prime1 + prime4
}

func avalanche(h uint64) uint64 {
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}
