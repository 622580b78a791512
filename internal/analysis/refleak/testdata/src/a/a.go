// Package a is the refleak fixture: acquire/release pairing across error
// paths, with discharges flowing through helpers, closures, and defers.
package a

// Memory mimics the frame pool's acquire/release surface.
type Memory struct{}

func (m *Memory) AllocN(n int) error     { return nil }
func (m *Memory) ShareN(n int) error     { return nil }
func (m *Memory) AddSharerN(n int) error { return nil }
func (m *Memory) ReleaseN(n int)         {}
func (m *Memory) CopyFrameN(n int) error { return nil }
func (m *Memory) releaseOne(n int)       {}

// Space mimics the address-space surface.
type Space struct{}

func (s *Space) Remap(n int) error { return nil }

// Conn carries the any-receiver teardown.
type Conn struct{}

func (c *Conn) DestroyDomain(id int) error { return nil }

func (c *Conn) DomainDestroy(ctx, id int) error { return nil }

func work() error { return nil }

// leakOnErrPath is the target bug class: the second error return fires
// with the ShareN reference still outstanding.
func leakOnErrPath(m *Memory) error {
	if err := m.ShareN(1); err != nil {
		return err
	}
	if err := work(); err != nil {
		return err // want `error return with unreleased ShareN`
	}
	m.ReleaseN(1)
	return nil
}

// ownCheck returns the acquire's own error: a failed acquire acquired
// nothing, and past the guard err is known nil.
func ownCheck(m *Memory) error {
	err := m.ShareN(1)
	if err != nil {
		return err
	}
	m.ReleaseN(1)
	return err
}

// lateCheck separates the acquire from its guard by unrelated work — the
// CFG still connects them.
func lateCheck(m *Memory) error {
	err := m.AddSharerN(2)
	n := 2 * 2
	_ = n
	if err != nil {
		return err
	}
	m.ReleaseN(2)
	return nil
}

// inlineRelease discharges before the error return.
func inlineRelease(m *Memory) error {
	if err := m.ShareN(1); err != nil {
		return err
	}
	if err := work(); err != nil {
		m.ReleaseN(1)
		return err
	}
	m.ReleaseN(1)
	return nil
}

// rollback is the direct unwind helper.
func rollback(m *Memory) { m.ReleaseN(1) }

// undo reaches a release one hop deeper.
func undo(m *Memory) { m.releaseOne(0) }

// unwind reaches a release only transitively, through undo.
func unwind(m *Memory) { undo(m) }

// viaHelper discharges through a same-package helper call.
func viaHelper(m *Memory) error {
	if err := m.ShareN(1); err != nil {
		return err
	}
	if err := work(); err != nil {
		rollback(m)
		return err
	}
	m.ReleaseN(1)
	return nil
}

// viaTransitiveHelper discharges two hops down the call graph.
func viaTransitiveHelper(m *Memory) error {
	if err := m.AddSharerN(3); err != nil {
		return err
	}
	if err := work(); err != nil {
		unwind(m)
		return err
	}
	m.ReleaseN(3)
	return nil
}

// deferredHelper covers every path with a deferred unwind helper.
func deferredHelper(m *Memory) error {
	if err := m.ShareN(1); err != nil {
		return err
	}
	defer rollback(m)
	if err := work(); err != nil {
		return err
	}
	return nil
}

// deferredClosure covers every path with an immediately-invoked literal.
func deferredClosure(m *Memory) error {
	if err := m.ShareN(1); err != nil {
		return err
	}
	defer func() { m.ReleaseN(1) }()
	if err := work(); err != nil {
		return err
	}
	return nil
}

// failClosure routes the error return through a release closure.
func failClosure(m *Memory) error {
	if err := m.ShareN(4); err != nil {
		return err
	}
	fail := func(err error) error {
		m.ReleaseN(4)
		return err
	}
	if err := work(); err != nil {
		return fail(err)
	}
	m.ReleaseN(4)
	return nil
}

// copied breaks the share instead of releasing — CopyFrameN discharges.
func copied(m *Memory) error {
	if err := m.AddSharerN(2); err != nil {
		return err
	}
	if err := work(); err != nil {
		m.CopyFrameN(2)
		return err
	}
	m.ReleaseN(2)
	return nil
}

// destroyed tears the whole domain down; DestroyDomain discharges on any
// receiver.
func destroyed(m *Memory, c *Conn) error {
	if err := m.ShareN(1); err != nil {
		return err
	}
	if err := work(); err != nil {
		c.DestroyDomain(7)
		return err
	}
	m.ReleaseN(1)
	return nil
}

// domainDestroyed is destroyed through the OpCtx-first name, which
// discharges on any receiver too.
func domainDestroyed(m *Memory, c *Conn) error {
	if err := m.ShareN(1); err != nil {
		return err
	}
	if err := work(); err != nil {
		c.DomainDestroy(0, 7)
		return err
	}
	m.ReleaseN(1)
	return nil
}

// remapped transfers the reference into a durable mapping.
func remapped(m *Memory, s *Space) error {
	if err := m.ShareN(1); err != nil {
		return err
	}
	if err := s.Remap(1); err != nil {
		return err
	}
	return nil
}

// loopLeak acquires per iteration and escapes mid-iteration.
func loopLeak(m *Memory, n int) error {
	for i := 0; i < n; i++ {
		if err := m.AddSharerN(i); err != nil {
			return err
		}
		if err := work(); err != nil {
			return err // want `error return with unreleased AddSharerN`
		}
		m.ReleaseN(i)
	}
	return nil
}

// rangeBalanced acquires and releases per iteration of a range loop;
// the loop head must not replay the body's acquire, so the unrelated
// error return after the loop is clean.
func rangeBalanced(m *Memory, xs []int) error {
	for i := range xs {
		if err := m.ShareN(i); err != nil {
			return err
		}
		m.ReleaseN(i)
	}
	if err := work(); err != nil {
		return err
	}
	return nil
}

// rangeLeak escapes mid-iteration of a range loop with the reference
// outstanding — the release at loop entry must not mask it.
func rangeLeak(m *Memory, xs []int) error {
	for i := range xs {
		if err := m.ShareN(i); err != nil {
			return err
		}
		if err := work(); err != nil {
			return err // want `error return with unreleased ShareN`
		}
		m.ReleaseN(i)
	}
	return nil
}

// retainOnSuccess deliberately keeps the reference (ownership lives on
// in the receiver) and returns err after its guard: err is known nil
// across the block boundary, so this is a success path, not a leak.
func retainOnSuccess(m *Memory) error {
	err := m.ShareN(1)
	if err != nil {
		return err
	}
	return err
}

// retainOnSuccessNamed is the same shape with a bare return of the named
// error result.
func retainOnSuccessNamed(m *Memory) (err error) {
	err = m.ShareN(1)
	if err != nil {
		return
	}
	return
}

// switchLeak leaks through one case only.
func switchLeak(m *Memory, mode int) error {
	if err := m.ShareN(5); err != nil {
		return err
	}
	switch mode {
	case 0:
		m.ReleaseN(5)
		return nil
	case 1:
		return work() // want `error return with unreleased ShareN`
	}
	m.ReleaseN(5)
	return nil
}

// tailForward forwards the acquire's own error — a wrapper acquired
// nothing when its result is non-nil.
func tailForward(m *Memory) error {
	return m.AddSharerN(1)
}

// waived keeps a justified escape hatch.
func waived(m *Memory) error {
	if err := m.ShareN(6); err != nil {
		return err
	}
	if err := work(); err != nil {
		return err //nephele:refleak-ok fixture: exercises the waiver path
	}
	m.ReleaseN(6)
	return nil
}
