package toolstack

import (
	"encoding/json"

	"nephele/internal/mem"
	"nephele/internal/xxh64"
)

// hashRun content-hashes one data run: page count plus, per slot, a
// present marker and the page bytes, each step seeding the next. A nil
// slot (a page reading as zeroes) hashes as absent, so the same contents
// hash identically whether the zero page was scrubbed at save time or
// never stored.
func hashRun(pages [][]byte) uint64 {
	h := xxh64.Uint(0, uint64(len(pages)))
	for _, data := range pages {
		if data == nil {
			h = xxh64.Uint(h, 0)
			continue
		}
		h = xxh64.Sum(data, xxh64.Uint(h, 1))
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
			h = xxh64.Sum(cfgJSON, 0)
		}
		h = xxh64.Uint(h, uint64(img.npages))
		for i := range img.runs {
			r := &img.runs[i]
			h = xxh64.Uint(h, uint64(r.start))
			h = xxh64.Uint(h, uint64(r.count))
			switch {
			case r.isAlias:
				h = xxh64.Uint(h, 1)
				h = xxh64.Uint(h, uint64(r.alias))
			case r.pages == nil:
				h = xxh64.Uint(h, 2)
			default:
				h = xxh64.Uint(h, 3)
				img.runHashes[i] = hashRun(r.pages)
				h = xxh64.Uint(h, img.runHashes[i])
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
