package mem

import (
	"fmt"

	"nephele/internal/obs"
)

// Extent is one stretch of a Populate: Data holds the bytes of the pfns
// Start..Start+len(Data)-1, a nil slot reading as zeroes. Frames, when
// non-nil, parallels Data with resident frames of the source domain that
// hold those same bytes.
type Extent struct {
	Start  PFN
	Data   [][]byte
	Frames []MFN
}

// Populate fills the space from extents, the one populate path of both
// restores. A private KindRegular entry whose extent carries frames stops
// being backed by its own frame and COW-shares the src frame owned by
// srcDom (typically a snapshot-cache chunk, already on dom_cow); every
// other entry — the Xen-special pages, or any extent without frames —
// gets its bytes copied into its own frame, a nil slot leaving it as is.
//
// Sharing dispatches exactly like ShareN (a dom_cow frame gains a
// reference for free, a srcDom frame is transferred for one PageShare),
// frees the displaced private frames and charges the page-table and p2m
// rewrite per shared entry — PTE writes, not page copies. Copies are not
// charged: the caller charges the restore as a whole.
//
// Extents must be in ascending, non-overlapping pfn order, every target
// entry present and private (non-COW, non-lazy), and a copied one
// writable. All of that, and ShareN's own validation, is checked before
// any mutation, so a refused call leaves the space and the pool untouched.
// It returns the number of shared entries.
func (s *Space) Populate(ctx obs.OpCtx, srcDom DomID, extents []Extent) (int, error) {
	meter := ctx.Meter()
	_, span := ctx.StartSpan("populate")
	defer span.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return 0, ErrSpaceRetired
	}
	shared, next := 0, 0
	for _, e := range extents {
		if int(e.Start) < next {
			return 0, fmt.Errorf("mem: populate at pfn %d: extents overlap or are out of order", e.Start)
		}
		if e.Frames != nil && len(e.Frames) != len(e.Data) {
			return 0, fmt.Errorf("mem: populate at pfn %d: %d frames for %d pages", e.Start, len(e.Frames), len(e.Data))
		}
		end := int(e.Start) + len(e.Data)
		if end > len(s.ptes) {
			return 0, fmt.Errorf("%w: pfns %d..%d of %d", ErrBadPFN, e.Start, end, len(s.ptes))
		}
		next = end
		for j, data := range e.Data {
			pfn := int(e.Start) + j
			p := &s.ptes[pfn]
			switch {
			case !p.present:
				return 0, fmt.Errorf("%w: pfn %d not present", ErrBadPFN, pfn)
			case p.lazy || p.cow:
				return 0, fmt.Errorf("mem: populate pfn %d: not a private page (lazy %t, cow %t)", pfn, p.lazy, p.cow)
			case len(data) > PageSize:
				return 0, fmt.Errorf("%w: pfn %d: %d bytes", ErrBadOffset, pfn, len(data))
			case e.Frames != nil && p.kind == KindRegular:
				shared++
			case data != nil && !p.writable:
				return 0, fmt.Errorf("%w: pfn %d", ErrReadOnly, pfn)
			}
		}
	}

	var err error
	if shared > 0 {
		// Take the space's references on every source frame first: if
		// this fails nothing has been installed and the space is
		// untouched. The list then collects the displaced frames.
		mfns := make([]MFN, 0, shared)
		for _, e := range extents {
			for j, mfn := range e.Frames {
				if s.ptes[int(e.Start)+j].kind == KindRegular {
					mfns = append(mfns, mfn)
				}
			}
		}
		if err := s.mem.ShareN(srcDom, mfns, 2, meter); err != nil {
			return 0, err
		}
		old := mfns[:0]
		for _, e := range extents {
			for j, mfn := range e.Frames {
				p := &s.ptes[int(e.Start)+j]
				if p.kind == KindRegular {
					old = append(old, p.mfn)
					p.mfn, p.cow, p.writable = mfn, true, true
				}
			}
		}
		// The displaced frames were validated as this space's own private
		// memory; releasing them dispatches to Free.
		err = s.mem.ReleaseN(s.dom, old)
		if meter != nil {
			meter.Charge(meter.Costs().PTEntryClone, shared)
			meter.Charge(meter.Costs().P2MEntryClone, shared)
		}
	}
	for _, e := range extents {
		for j, data := range e.Data {
			p := &s.ptes[int(e.Start)+j]
			if data == nil || p.cow {
				continue // a zero slot, or an entry shared above
			}
			if werr := s.mem.Write(p.mfn, 0, data); werr != nil && err == nil {
				err = werr
			}
		}
	}
	return shared, err
}
