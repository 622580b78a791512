package toolstack

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// Image is a saved domain image: the configuration plus the full contents
// of the guest memory, encoded as run-length extents rather than one slice
// per page. Zero runs (pages the guest never wrote) store nothing, alias
// runs (family-shared mappings that repeat earlier frames) store nothing,
// and only genuinely distinct written pages carry data. Restore still
// copies the entire allocated VM memory back regardless of how much the
// guest actually used — Pages() reports the full on-wire count and the
// restore charge covers it — which is why restore is consistently slower
// than boot in Fig. 4.
type Image struct {
	Config DomainConfig
	npages int        // full allocated page count (the on-wire size)
	runs   []imageRun // sorted by start, non-overlapping

	// hashOnce lazily computes the content-addressed identity: one XXH64
	// hash per data run plus the image-wide cache key. Hashing never
	// mutates runs, so a hashed image stays safe for concurrent readers.
	hashOnce  sync.Once
	runHashes []uint64 // parallel to runs; 0 for zero and alias runs
	key       uint64
}

// imageRun is one extent of the image: count consecutive pfns from start.
// A zero run has nil pages; a data run carries one slot per pfn (all-zero
// written pages are scrubbed to nil slots); an alias run repeats the
// contents of the run covering pfn alias. Pages are never written: a saved
// image's pages are the guest frames' buffers, and the image cache's
// frames alias them in turn (DESIGN.md §15.6).
type imageRun struct {
	start   mem.PFN
	count   int
	pages   [][]byte
	alias   mem.PFN // valid iff isAlias
	isAlias bool
}

// Pages reports the number of frames in the image: the full allocated VM
// memory, however compactly the extents encode it.
func (img *Image) Pages() int { return img.npages }

// Runs reports the number of extents encoding the image.
func (img *Image) Runs() int { return len(img.runs) }

// runIndexOf binary-searches the sorted runs for the one covering pfn,
// returning -1 when no run does.
func (img *Image) runIndexOf(pfn mem.PFN) int {
	i := sort.Search(len(img.runs), func(k int) bool {
		r := &img.runs[k]
		return r.start+mem.PFN(r.count) > pfn
	})
	if i == len(img.runs) || pfn < img.runs[i].start {
		return -1
	}
	return i
}

// pageAt resolves the stored contents of one pfn, following at most one
// level of alias indirection (aliases always point into fresh runs). nil
// means the page reads as zeroes.
func (img *Image) pageAt(pfn mem.PFN) []byte {
	i := img.runIndexOf(pfn)
	if i < 0 {
		return nil
	}
	r := &img.runs[i]
	if r.isAlias {
		src := r.alias + (pfn - r.start)
		j := img.runIndexOf(src)
		if j < 0 {
			return nil
		}
		sr := &img.runs[j]
		if sr.isAlias || sr.pages == nil {
			return nil
		}
		return sr.pages[src-sr.start]
	}
	if r.pages == nil {
		return nil
	}
	return r.pages[pfn-r.start]
}

// appendExtents appends the image runs to out as populate extents in pfn
// order: a data run passes through as it is, an alias run becomes the
// slices of the data runs it repeats (resolving each covered source run
// once), and zero runs and zero stretches are skipped — a fresh domain's
// pages already read as zeroes. With ci non-nil, each extent carries the
// cached chunk frames backing its bytes. Aliases always point into fresh
// runs, so a nested alias contributes zeroes.
func (img *Image) appendExtents(out []mem.Extent, ci *cachedImage) []mem.Extent {
	for i := range img.runs {
		r := &img.runs[i]
		if !r.isAlias {
			if r.pages != nil {
				out = append(out, img.extent(ci, r.start, i, 0, r.count))
			}
			continue
		}
		for off := 0; off < r.count; {
			src := r.alias + mem.PFN(off)
			j := img.runIndexOf(src)
			if j < 0 {
				off++
				continue
			}
			sr := &img.runs[j]
			n := min(int(sr.start)+sr.count-int(src), r.count-off)
			if !sr.isAlias && sr.pages != nil {
				out = append(out, img.extent(ci, r.start+mem.PFN(off), j, int(src-sr.start), n))
			}
			off += n
		}
	}
	return out
}

// extent places pages base..base+n-1 of data run i at pfn start.
func (img *Image) extent(ci *cachedImage, start mem.PFN, i, base, n int) mem.Extent {
	e := mem.Extent{Start: start, Data: img.runs[i].pages[base : base+n]}
	if ci != nil {
		e.Frames = ci.runs[i].chunk.mfns[base : base+n]
	}
	return e
}

// Save serializes a running domain to an image (the domain keeps running;
// the paper's experiment saves and then restores a fresh instance each
// iteration).
func (x *XL) Save(id hv.DomID, meter *vclock.Meter) (*Image, error) {
	rec, err := x.Record(id)
	if err != nil {
		return nil, err
	}
	dom, err := x.HV.Domain(id)
	if err != nil {
		return nil, err
	}
	space := dom.Space()
	n := space.Pages()
	// SnapshotRuns captures the whole space in one coherent pass as
	// extents: never-written ranges collapse into zero runs with no
	// per-page storage, repeated family-shared frames into alias runs,
	// so only pages the guest actually touched need the zero scan. The
	// image's pages are the frames' own buffers, frozen until the guest
	// next writes them, so nothing is copied.
	runs, err := space.SnapshotRuns()
	if err != nil {
		return nil, fmt.Errorf("toolstack: save domain %d: %w", id, err)
	}
	iruns := make([]imageRun, len(runs))
	for i, r := range runs {
		iruns[i] = imageRun{start: r.Start, count: r.Count, pages: r.Pages,
			alias: r.Alias, isAlias: r.IsAlias}
		for j, data := range iruns[i].pages {
			if data != nil && allZero(data) {
				iruns[i].pages[j] = nil
			}
		}
	}
	img := &Image{Config: rec.Config, npages: n, runs: iruns}
	if meter != nil {
		meter.Charge(meter.Costs().ImagePageSave, n)
	}
	return img, nil
}

// Restore instantiates a new domain from an image under a fresh name. The
// toolstack path mirrors Create, then the whole image memory is copied
// into the new domain.
func (x *XL) Restore(img *Image, name string, meter *vclock.Meter) (*Record, error) {
	rec, _, err := x.restore(obs.Ctx(meter), img, name, nil, nil)
	return rec, err
}

// restore is the one restore path: Create, then Space.Populate from the
// image extents. Without ci every stored page is copied and the entire
// allocated memory is charged, used or not (§6.1); with ci, the hit of
// store, the regular pages COW-share its chunk frames instead. An image
// whose page count differs from its domain's is refused, and a failure
// after Create destroys the new domain. It returns the number of shared
// pages.
func (x *XL) restore(ctx obs.OpCtx, img *Image, name string, store *ImageStore, ci *cachedImage) (*Record, int, error) {
	meter := ctx.Meter()
	cfg := img.Config
	cfg.Name = name
	rec, err := x.Create(cfg, meter)
	if err != nil {
		return nil, 0, err
	}
	shared, err := x.populate(ctx, rec.ID, img, store, ci)
	if err != nil {
		x.Destroy(rec.ID, nil)
		return nil, 0, err
	}
	if ci == nil && meter != nil {
		meter.Charge(meter.Costs().ImagePageRestore, img.npages)
	}
	return rec, shared, nil
}

// populate fills the freshly created domain id from img; see restore.
func (x *XL) populate(ctx obs.OpCtx, id hv.DomID, img *Image, store *ImageStore, ci *cachedImage) (int, error) {
	var src mem.DomID
	if ci != nil {
		if err := store.faultCheckRestore(); err != nil {
			return 0, err
		}
		src = store.dom
	}
	dom, err := x.HV.Domain(id)
	if err != nil {
		return 0, err
	}
	space := dom.Space()
	if space.Pages() != img.npages {
		return 0, fmt.Errorf("toolstack: image has %d pages, domain %d", img.npages, space.Pages())
	}
	// Populate keeps no reference to the extents, so those of a typical
	// image live on the stack.
	var buf [32]mem.Extent
	ext := buf[:0]
	if len(img.runs) > len(buf) {
		ext = make([]mem.Extent, 0, len(img.runs))
	}
	shared, err := space.Populate(ctx, src, img.appendExtents(ext, ci))
	if err != nil {
		return 0, fmt.Errorf("toolstack: restore domain %d: %w", id, err)
	}
	return shared, nil
}

// allZero reports whether b holds only zero bytes, testing a
// little-endian word at a time.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
