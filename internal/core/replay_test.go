package core

import (
	"testing"

	"nephele/internal/netsim"
	"nephele/internal/toolstack"
)

// TestBootVirtualTimeRepeats: identical boots on fresh platforms charge
// identical virtual time. Every Xenstore request is charged per node in
// the store, so the order in which a boot's batched writes create
// intermediate nodes is part of its cost; it must not vary between runs.
func TestBootVirtualTimeRepeats(t *testing.T) {
	cfg := toolstack.DomainConfig{
		Name:     "replay",
		MemoryMB: 4,
		VCPUs:    1,
		Vifs: []toolstack.VifConfig{
			{IP: netsim.IP{10, 0, 0, 2}},
			{IP: netsim.IP{10, 0, 1, 2}},
		},
	}
	var first int64
	for i := 0; i < 24; i++ {
		p := smallPlatform(Options{SkipNameCheck: true})
		meter := p.NewMeter()
		if _, err := p.Boot(cfg, meter); err != nil {
			t.Fatal(err)
		}
		got := int64(meter.Elapsed())
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("boot %d charged %d ns, boot 0 charged %d ns", i, got, first)
		}
	}
}
