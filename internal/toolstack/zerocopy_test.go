package toolstack

import (
	"bytes"
	"sync"
	"testing"

	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/obs"
)

// imageBytes flattens an image's whole pseudo-physical space through the
// pageAt oracle (a nil page reads as zeroes).
func imageBytes(img *Image) []byte {
	out := make([]byte, img.npages*mem.PageSize)
	for pfn := 0; pfn < img.npages; pfn++ {
		copy(out[pfn*mem.PageSize:], img.pageAt(mem.PFN(pfn)))
	}
	return out
}

// writePages stamps every pfn in [lo, hi) of dom with tag.
func writePages(t *testing.T, r *rig, id hv.DomID, lo, hi int, tag byte) {
	t.Helper()
	dom, err := r.hv.Domain(id)
	if err != nil {
		t.Fatal(err)
	}
	for pfn := lo; pfn < hi; pfn++ {
		if err := dom.Space().Write(mem.PFN(pfn), 0, []byte{tag, byte(pfn), byte(pfn >> 8), 0x5a}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCachedImageIsolation: an image's pages, the cache frames an insert
// builds over them and the children restored from them stay what the
// parent held at save time, while the parent rewrites its pages, a warm
// child writes its COW pages, and a second insert evicts the image. Save
// and Insert alias page buffers instead of copying them, so this is the
// contract the frozen-frame clone-on-write upholds.
func TestCachedImageIsolation(t *testing.T) {
	r := newRig(t)
	const written = 96
	store := NewImageStore(r.hv.Memory, 0)
	store.maxPages = written + 8 // room for one image of the parent
	parent, err := r.xl.Create(baseConfig("iso"), nil)
	if err != nil {
		t.Fatal(err)
	}
	writePages(t, r, parent.ID, 0, written, 0x11)
	img, err := r.xl.Save(parent.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	model := imageBytes(img)
	if got := domainBytes(t, r, parent.ID, img.npages); !bytes.Equal(got, model) {
		t.Fatal("the saved image differs from the parent it was saved from")
	}
	check := func(when string) {
		t.Helper()
		if !bytes.Equal(imageBytes(img), model) {
			t.Fatalf("%s: the first image's bytes changed", when)
		}
	}

	// A miss restores cold and inserts, aliasing the image's pages.
	cold, served, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "iso-cold")
	if err != nil || served {
		t.Fatalf("first restore: served %v, %v; want a miss", served, err)
	}
	ci := store.images[img.CacheKey()]
	if ci == nil {
		t.Fatal("the miss did not insert the image")
	}
	var chunkFrames []mem.MFN
	var chunkPFNs []int
	for _, cr := range ci.runs {
		if cr.chunk == nil {
			continue
		}
		for j, mfn := range cr.chunk.mfns {
			chunkFrames = append(chunkFrames, mfn)
			chunkPFNs = append(chunkPFNs, int(cr.start)+j)
		}
	}
	checkFrames := func(when string, frames []mem.MFN, pfns []int) {
		t.Helper()
		buf := make([]byte, mem.PageSize)
		for i, mfn := range frames {
			if err := r.hv.Memory.Read(mfn, 0, buf); err != nil {
				t.Fatal(err)
			}
			pfn := pfns[i]
			if !bytes.Equal(buf, model[pfn*mem.PageSize:(pfn+1)*mem.PageSize]) {
				t.Fatalf("%s: cache frame %d (pfn %d) changed", when, mfn, pfn)
			}
		}
	}

	// The parent rewrites its pages; a warm child adopts the cache frames
	// and privatizes half of them by writing.
	writePages(t, r, parent.ID, 0, written, 0x22)
	warm, served, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "iso-warm")
	if err != nil || !served {
		t.Fatalf("warm restore: served %v, %v; want a hit", served, err)
	}
	writePages(t, r, warm.ID, 0, written/2, 0x33)
	check("after parent and warm-child writes")
	checkFrames("after parent and warm-child writes", chunkFrames, chunkPFNs)
	if got := domainBytes(t, r, cold.ID, img.npages); !bytes.Equal(got, model) {
		t.Fatal("the cold child changed")
	}

	// A second save and insert evicts the first image. The warm child now
	// holds the last reference on the frames it did not write, so its next
	// write takes the frame over instead of copying it.
	img2, err := r.xl.Save(parent.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img2, "iso-second"); err != nil {
		t.Fatal(err)
	}
	if store.Contains(img) {
		t.Fatal("the second insert did not evict the first image")
	}
	check("after eviction")
	checkFrames("after eviction", chunkFrames[written/2:], chunkPFNs[written/2:])
	writePages(t, r, warm.ID, written/2, written, 0x44)
	check("after the warm child wrote its last-shared pages")

	// A later restore of the first image — a miss that inserts it again,
	// then a warm hit — still yields the model.
	for _, name := range []string{"iso-again-cold", "iso-again-warm"} {
		rec, _, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, name)
		if err != nil {
			t.Fatal(err)
		}
		if got := domainBytes(t, r, rec.ID, img.npages); !bytes.Equal(got, model) {
			t.Fatalf("%s differs from the first save", name)
		}
	}
	if st := store.Stats(); st.Hits != 2 {
		t.Fatalf("hits = %d, want the two warm restores", st.Hits)
	}
	check("at the end")
}

// TestSaveHashRacesParentWrites: a parent keeps writing while images are
// saved and hashed. Each image's pages are the parent's frame buffers, so
// a write that stored into one in place would race the hashing (the race
// detector reports it) and change the image after its key was taken.
func TestSaveHashRacesParentWrites(t *testing.T) {
	r := newRig(t)
	parent, err := r.xl.Create(baseConfig("racer"), nil)
	if err != nil {
		t.Fatal(err)
	}
	const written = 64
	writePages(t, r, parent.ID, 0, written, 0x01)
	dom, err := r.hv.Domain(parent.ID)
	if err != nil {
		t.Fatal(err)
	}
	sp := dom.Space()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		page := make([]byte, mem.PageSize)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := range page {
				page[i] = byte(n)
			}
			if err := sp.Write(mem.PFN(n%written), 0, page, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	type saved struct {
		img   *Image
		key   uint64
		bytes []byte
	}
	var imgs []saved
	for i := 0; i < 20; i++ {
		img, err := r.xl.Save(parent.ID, nil)
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		imgs = append(imgs, saved{img: img, key: img.CacheKey(), bytes: imageBytes(img)})
	}
	close(stop)
	wg.Wait()

	for i, s := range imgs {
		if !bytes.Equal(imageBytes(s.img), s.bytes) {
			t.Fatalf("image %d changed after it was saved", i)
		}
		fresh := &Image{Config: s.img.Config, npages: s.img.npages, runs: s.img.runs}
		if fresh.CacheKey() != s.key {
			t.Fatalf("image %d no longer hashes to the key taken at save time", i)
		}
	}
}
