// Package a seeds pairedops violations: Memory and Space mirror the clone
// pipeline's acquire/release API shape, and the Clone* functions exercise
// leaking, rolled-back, deferred, consumed, and waived error paths.
package a

import "errors"

type MFN uint64

var errExhausted = errors.New("out of frames")

// Memory is a toy frame pool with the pipeline's method names.
type Memory struct{ free int }

func (m *Memory) AllocN(dom, n int) ([]MFN, error) {
	if n > m.free {
		return nil, errExhausted
	}
	m.free -= n
	return make([]MFN, n), nil
}

func (m *Memory) ShareN(mfns []MFN, refs int) error {
	if refs <= 0 {
		return errExhausted
	}
	return nil
}

func (m *Memory) ReleaseN(dom int, mfns []MFN) {
	m.free += len(mfns)
}

func (m *Memory) AddSharer(mfn MFN, n int) error {
	if n <= 0 {
		return errExhausted
	}
	return nil
}

func (m *Memory) DropShared(mfn MFN) error { return nil }

// Space is a toy address space with a consuming Remap.
type Space struct{ mem *Memory }

func (s *Space) Remap(pfn, mfn MFN) error {
	if s.mem == nil {
		return errExhausted
	}
	return nil
}

// CloneLeak returns the second acquire's error without undoing the first.
func CloneLeak(m *Memory, dom int) error {
	mfns, err := m.AllocN(dom, 4)
	if err != nil {
		return err // the acquire's own failure: nothing to release
	}
	if err := m.ShareN(mfns, 2); err != nil {
		return err // want `unreleased AllocN`
	}
	return nil
}

// CloneRollback releases before the error return.
func CloneRollback(m *Memory, dom int) error {
	mfns, err := m.AllocN(dom, 4)
	if err != nil {
		return err
	}
	if err := m.ShareN(mfns, 2); err != nil {
		m.ReleaseN(dom, mfns)
		return err
	}
	return nil
}

// Hypervisor carries the any-receiver domain teardown.
type Hypervisor struct{}

func (h *Hypervisor) DomainDestroy(ctx, dom int) error { return nil }

// CloneDestroyed tears the half-built domain down before the error
// return: DomainDestroy discharges on any receiver.
func CloneDestroyed(m *Memory, h *Hypervisor, dom int) error {
	mfns, err := m.AllocN(dom, 4)
	if err != nil {
		return err
	}
	if err := m.ShareN(mfns, 2); err != nil {
		h.DomainDestroy(0, dom)
		return err
	}
	return nil
}

// CloneDeferred uses the cloneOne-style deferred unwind, which covers
// every return path.
func CloneDeferred(m *Memory, dom int) (err error) {
	var mfns []MFN
	defer func() {
		if err != nil {
			m.ReleaseN(dom, mfns)
		}
	}()
	mfns, err = m.AllocN(dom, 4)
	if err != nil {
		return err
	}
	return m.ShareN(mfns, 2)
}

// CloneClosure funnels error exits through a rollback closure, the
// Space.Clone fail() pattern.
func CloneClosure(m *Memory, dom int) error {
	mfns, err := m.AllocN(dom, 4)
	if err != nil {
		return err
	}
	fail := func(e error) error {
		m.ReleaseN(dom, mfns)
		return e
	}
	if err := m.ShareN(mfns, 2); err != nil {
		return fail(err)
	}
	return nil
}

// CloneConsume drops the sharer reference when the consuming Remap fails.
func CloneConsume(m *Memory, s *Space, pfn MFN) error {
	if err := m.AddSharer(5, 1); err != nil {
		return err
	}
	if err := s.Remap(pfn, 5); err != nil {
		_ = m.DropShared(5)
		return err
	}
	return nil
}

// CloneConsumeLeak forgets that a failed Remap leaves the sharer
// reference outstanding.
func CloneConsumeLeak(m *Memory, s *Space, pfn MFN) error {
	if err := m.AddSharer(5, 1); err != nil {
		return err
	}
	if err := s.Remap(pfn, 5); err != nil {
		return err // want `unreleased AddSharer`
	}
	return nil
}

// CloneWaived leaks deliberately: the caller tears the whole domain down
// on error, which releases everything.
func CloneWaived(m *Memory, dom int) error {
	mfns, err := m.AllocN(dom, 4)
	if err != nil {
		return err
	}
	if err := m.ShareN(mfns, 2); err != nil {
		return err //nephele:pairedops-ok — caller destroys the domain on error
	}
	return nil
}
