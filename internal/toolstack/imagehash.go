package toolstack

import (
	"encoding/binary"
	"encoding/json"
	"math/bits"

	"nephele/internal/mem"
)

// The image cache keys chunks and images with XXH64 (the public xxHash
// 64-bit specification). It is written out here on the standard library
// alone (not hash/maphash, whose seed changes per process) so keys are
// stable across runs and across hosts — a serialized image reloaded
// tomorrow must hit the same cache entry it populated today. Input words
// are read little-endian whatever the host byte order, and the hash
// consumes a 32-byte stripe per step across four independent lanes, which
// is what keeps rehashing a whole image per save affordable.
const (
	xxPrime1 uint64 = 0x9E3779B185EBCA87
	xxPrime2 uint64 = 0xC2B2AE3D27D4EB4F
	xxPrime3 uint64 = 0x165667B19E3779F9
	xxPrime4 uint64 = 0x85EBCA77C2B2AE63
	xxPrime5 uint64 = 0x27D4EB2F165667C5
)

// xxh64 returns the XXH64 digest of b under seed.
func xxh64(b []byte, seed uint64) uint64 {
	n := len(b)
	var h uint64
	if n >= 32 {
		v1 := seed + xxPrime1 + xxPrime2
		v2 := seed + xxPrime2
		v3 := seed
		v4 := seed - xxPrime1
		for len(b) >= 32 {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(b[0:8]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(b[8:16]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(b[16:24]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(b[24:32]))
			b = b[32:]
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMerge(h, v1)
		h = xxMerge(h, v2)
		h = xxMerge(h, v3)
		h = xxMerge(h, v4)
	} else {
		h = seed + xxPrime5
	}
	h += uint64(n)
	for ; len(b) >= 8; b = b[8:] {
		h = xxWord(h, binary.LittleEndian.Uint64(b))
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b)) * xxPrime1
		h = bits.RotateLeft64(h, 23)*xxPrime2 + xxPrime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * xxPrime5
		h = bits.RotateLeft64(h, 11) * xxPrime1
	}
	return xxAvalanche(h)
}

// xxh64Uint returns xxh64 of v's 8 little-endian bytes under seed without
// materializing them: the spec's short-input path for exactly one word.
// Chaining it through the seed folds run geometry and presence markers
// into a hash.
func xxh64Uint(seed, v uint64) uint64 {
	return xxAvalanche(xxWord(seed+xxPrime5+8, v))
}

func xxRound(acc, in uint64) uint64 {
	acc += in * xxPrime2
	return bits.RotateLeft64(acc, 31) * xxPrime1
}

func xxMerge(h, v uint64) uint64 {
	h ^= xxRound(0, v)
	return h*xxPrime1 + xxPrime4
}

func xxWord(h, w uint64) uint64 {
	h ^= xxRound(0, w)
	return bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
}

func xxAvalanche(h uint64) uint64 {
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

// hashRun content-hashes one data run: page count plus, per slot, a
// present marker and the page bytes, each step seeding the next. A nil
// slot (a page reading as zeroes) hashes as absent, so the same contents
// hash identically whether the zero page was scrubbed at save time or
// never stored.
func hashRun(pages [][]byte) uint64 {
	h := xxh64Uint(0, uint64(len(pages)))
	for _, data := range pages {
		if data == nil {
			h = xxh64Uint(h, 0)
			continue
		}
		h = xxh64(data, xxh64Uint(h, 1))
	}
	return h
}

// ensureHashed computes the per-run content hashes and the image cache key
// once. The key covers the restore-relevant configuration (the name is
// cleared — a restore renames the domain anyway, and two saves of the same
// guest under different names are the same image), the on-wire page count,
// and every run's geometry plus content hash, so any difference in layout
// or bytes yields a different key.
func (img *Image) ensureHashed() {
	img.hashOnce.Do(func() {
		img.runHashes = make([]uint64, len(img.runs))
		cfg := img.Config
		cfg.Name = ""
		var h uint64
		if cfgJSON, err := json.Marshal(cfg); err == nil {
			h = xxh64(cfgJSON, 0)
		}
		h = xxh64Uint(h, uint64(img.npages))
		for i := range img.runs {
			r := &img.runs[i]
			h = xxh64Uint(h, uint64(r.start))
			h = xxh64Uint(h, uint64(r.count))
			switch {
			case r.isAlias:
				h = xxh64Uint(h, 1)
				h = xxh64Uint(h, uint64(r.alias))
			case r.pages == nil:
				h = xxh64Uint(h, 2)
			default:
				h = xxh64Uint(h, 3)
				img.runHashes[i] = hashRun(r.pages)
				h = xxh64Uint(h, img.runHashes[i])
			}
		}
		img.key = h
	})
}

// CacheKey returns the image's deterministic content-addressed identity:
// equal keys mean equal restore results. The first call hashes the image;
// later calls are free.
func (img *Image) CacheKey() uint64 {
	img.ensureHashed()
	return img.key
}

// RunKind classifies one image extent for transfer planning.
type RunKind int

const (
	// RunZero: pages the guest never wrote; nothing stored, nothing shipped.
	RunZero RunKind = iota
	// RunAlias: a family-shared range repeating an earlier extent; ships as
	// a header only.
	RunAlias
	// RunData: genuinely distinct written pages with a content hash.
	RunData
)

// RunInfo describes one image extent without exposing its page storage:
// the geometry, the kind, how many page slots a data run stores, and the
// data run's content hash (the cross-host dedup identity — the same XXH64
// key the receiver's ImageStore chunks under).
type RunInfo struct {
	Start       mem.PFN
	Count       int
	Kind        RunKind
	StoredPages int    // non-nil page slots in a data run; 0 otherwise
	Hash        uint64 // content hash of a data run; 0 otherwise
}

// RunInfos returns the transfer-planning view of the image's extents, in
// layout order. The first call hashes the image.
func (img *Image) RunInfos() []RunInfo {
	img.ensureHashed()
	out := make([]RunInfo, len(img.runs))
	for i := range img.runs {
		r := &img.runs[i]
		ri := RunInfo{Start: r.start, Count: r.count}
		switch {
		case r.isAlias:
			ri.Kind = RunAlias
		case r.pages == nil:
			ri.Kind = RunZero
		default:
			ri.Kind = RunData
			ri.Hash = img.runHashes[i]
			for _, data := range r.pages {
				if data != nil {
					ri.StoredPages++
				}
			}
		}
		out[i] = ri
	}
	return out
}
