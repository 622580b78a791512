package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// guestConfig is a Mini-OS-style guest: one vif plus the default console,
// with a clone budget no round can exhaust.
func guestConfig(name string, mb int, ip byte) toolstack.DomainConfig {
	return toolstack.DomainConfig{
		Name:      name,
		MemoryMB:  mb,
		VCPUs:     1,
		MaxClones: 1 << 30,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, ip}}},
	}
}

// regularPages is how many guest pages the benchmark writes and checks:
// all but the three Xen-special pages at the top of guest memory.
func regularPages(cfg toolstack.DomainConfig) int { return cfg.Pages() - 3 }

// stampLen is the size of the stamp each benchmark write leaves at offset
// 0 of a page: the pfn and a serial unique within the round, so no two
// writes leave the same bytes and a page mapped from the wrong frame or
// written at the wrong time shows. The rest of every page stays zero.
const stampLen = 16

// contents models a guest's regular pages: the serial of the stamp last
// written to each page, 0 for a page never written (it reads as zeroes).
type contents []uint64

// writer writes stamps into guests and keeps their models current.
type writer struct {
	serial uint64
	buf    [stampLen]byte
}

// write stamps page pfn of sp and records the stamp in model.
func (w *writer) write(sp *mem.Space, model contents, pfn int, meter *vclock.Meter) error {
	w.serial++
	putStamp(&w.buf, pfn, w.serial)
	if err := sp.Write(mem.PFN(pfn), 0, w.buf[:], meter); err != nil {
		return fmt.Errorf("write pfn %d: %w", pfn, err)
	}
	model[pfn] = w.serial
	return nil
}

// writeAll stamps pages of sp, stopping at the first error.
func (w *writer) writeAll(sp *mem.Space, model contents, pfns []int, meter *vclock.Meter) error {
	for _, pfn := range pfns {
		if err := w.write(sp, model, pfn, meter); err != nil {
			return err
		}
	}
	return nil
}

func putStamp(b *[stampLen]byte, pfn int, serial uint64) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(pfn)+1)
	binary.LittleEndian.PutUint64(b[8:16], serial)
}

// wantPage fills b (a stamp or a whole page) with what page pfn must hold
// under model.
func wantPage(b []byte, model contents, pfn int) {
	clear(b)
	if s := model[pfn]; s != 0 {
		var st [stampLen]byte
		putStamp(&st, pfn, s)
		copy(b, st[:])
	}
}

var errContent = errors.New("page contents differ from the model")

// checkStamps compares the stamp of every listed page of sp (every regular
// page when pfns is nil) with model. A page's bytes past the stamp are
// never written, so the stamp identifies the whole page.
func checkStamps(sp *mem.Space, model contents, pfns []int) error {
	var got, want [stampLen]byte
	one := func(pfn int) error {
		if err := sp.Read(mem.PFN(pfn), 0, got[:]); err != nil {
			return fmt.Errorf("read pfn %d of dom %d: %w", pfn, sp.Dom(), err)
		}
		wantPage(want[:], model, pfn)
		if got != want {
			return fmt.Errorf("%w: dom %d pfn %d", errContent, sp.Dom(), pfn)
		}
		return nil
	}
	if pfns == nil {
		for pfn := range model {
			if err := one(pfn); err != nil {
				return err
			}
		}
		return nil
	}
	for _, pfn := range pfns {
		if err := one(pfn); err != nil {
			return err
		}
	}
	return nil
}

// checkPages compares every regular page of sp with model byte for byte.
func checkPages(sp *mem.Space, model contents) error {
	got := make([]byte, mem.PageSize)
	want := make([]byte, mem.PageSize)
	for pfn := range model {
		if err := sp.Read(mem.PFN(pfn), 0, got); err != nil {
			return fmt.Errorf("read pfn %d of dom %d: %w", pfn, sp.Dom(), err)
		}
		wantPage(want, model, pfn)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%w: dom %d pfn %d", errContent, sp.Dom(), pfn)
		}
	}
	return nil
}

// pick returns k distinct pages out of n, in random order.
func pick(rng *rand.Rand, n, k int) []int {
	return append([]int(nil), rng.Perm(n)[:k]...)
}

// idHash folds domain IDs into one comparable value (FNV-1a).
func idHash(ids []mem.DomID) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h = (h ^ uint64(id)) * 1099511628211
	}
	return h
}
