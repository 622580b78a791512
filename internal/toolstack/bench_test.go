package toolstack

import (
	"testing"

	"nephele/internal/mem"
)

// BenchmarkSaveDirty measures one save cycle of a running guest that
// keeps changing: 1% of a fully written 16 MB domain's pages are
// rewritten, then the domain is saved. Snapshots share the frames' page
// buffers, so the cycle's copying scales with the rewritten pages (each
// write to a captured frame clones it) rather than with the image.
func BenchmarkSaveDirty(b *testing.B) {
	r := newRig(b)
	cfg := baseConfig("dirty")
	cfg.MemoryMB = 16
	rec, err := r.xl.Create(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	dom, err := r.hv.Domain(rec.ID)
	if err != nil {
		b.Fatal(err)
	}
	sp := dom.Space()
	regular := cfg.Pages() - 3
	payload := make([]byte, 64)
	for pfn := 0; pfn < regular; pfn++ {
		payload[0], payload[1] = byte(pfn), byte(pfn>>8)
		if err := sp.Write(mem.PFN(pfn), 0, payload, nil); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := r.xl.Save(rec.ID, nil); err != nil {
		b.Fatal(err)
	}
	dirty := regular / 100
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[2] = byte(i + 1)
		for k := 0; k < dirty; k++ {
			pfn := (i*dirty + k*97) % regular
			if err := sp.Write(mem.PFN(pfn), 0, payload, nil); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := r.xl.Save(rec.ID, nil); err != nil {
			b.Fatal(err)
		}
	}
}
