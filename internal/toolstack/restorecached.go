package toolstack

import (
	"nephele/internal/fault"
	"nephele/internal/obs"
)

// RestoreCachedOp restores an image through the content-addressed cache.
// The image is hashed (span "image-hash"); on a hit the child is created
// fresh and populated by COW-sharing the cache's resident chunk frames
// (span "restore-cached", one Space.Populate beneath it) — O(page-table
// writes) instead of O(page copies). On a miss it falls back to the plain
// copying Restore (span "restore-cold"), with its exact virtual-time
// charging, and populates the cache as a side effect (span
// "cache-insert"); an insert failure is swallowed (the restore stands,
// the store rolled back) and counted in the store stats.
//
// The bool result reports whether the cache served the restore.
func (x *XL) RestoreCachedOp(ctx obs.OpCtx, store *ImageStore, img *Image, name string) (*Record, bool, error) {
	_, hspan := ctx.StartSpan("image-hash")
	key := img.CacheKey()
	hspan.End()

	ci := store.touch(key)
	if ci == nil {
		cctx, cspan := ctx.StartSpan("restore-cold")
		rec, _, err := x.restore(cctx, img, name, nil, nil)
		cspan.End()
		if err != nil {
			return nil, false, err
		}
		_, ispan := ctx.StartSpan("cache-insert")
		if err := store.Insert(img, ctx.Meter()); err != nil {
			store.noteInsertFailure()
		}
		ispan.End()
		return rec, false, nil
	}

	rctx, rspan := ctx.StartSpan("restore-cached")
	defer rspan.End()
	rec, shared, err := x.restore(rctx, img, name, store, ci)
	if err != nil {
		return nil, true, err
	}
	store.noteAdopted(shared)
	return rec, true, nil
}

// faultCheckRestore evaluates the cached-restore fault point under the
// store's registry.
func (st *ImageStore) faultCheckRestore() error {
	st.mu.Lock()
	r := st.faults
	st.mu.Unlock()
	return r.Check(fault.PointCacheRestore)
}
