package hv

import (
	"errors"
	"testing"

	"nephele/internal/fault"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// batchReady creates a hypervisor with cloning enabled and `parents`
// identically-configured parent domains.
func batchReady(t *testing.T, parents, pages, maxClones int) (*Hypervisor, []*Domain) {
	t.Helper()
	h := newHV(t)
	h.SetCloningEnabled(true)
	doms := make([]*Domain, parents)
	for i := range doms {
		p, err := h.DomainCreate(obs.OpCtx{}, pages, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.DomctlSetCloning(p.ID, true, maxClones); err != nil {
			t.Fatal(err)
		}
		doms[i] = p
	}
	return h, doms
}

// completeAll acknowledges the second stage for every child of every
// successful result and waits for the Done channels (parents resumed).
func completeAll(t *testing.T, h *Hypervisor, results []CloneResult) {
	t.Helper()
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		for _, k := range r.Children {
			if err := h.CloneCompletion(obs.OpCtx{}, k, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, r := range results {
		if r.Done != nil {
			<-r.Done
		}
	}
}

// TestCloneBatchVirtualTimeMatchesSolo is the determinism claim of the
// multi-parent round: a request's virtual-time output in a batch with
// other parents is byte-identical to running it alone, because each
// request only ever charges its own meter.
func TestCloneBatchVirtualTimeMatchesSolo(t *testing.T) {
	const pages, n = 64, 2

	// Solo run: one parent, one Clone.
	hs, solos := batchReady(t, 1, pages, 4)
	soloMeter := vclock.NewMeter(nil)
	res := hs.Clone(CloneRequest{Caller: solos[0].ID, Target: solos[0].ID, N: n, CopyRing: true, Ctx: obs.Ctx(soloMeter)})
	kids, soloStats, done, err := res.Children, res.Stats, res.Done, res.Err
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kids {
		hs.CloneCompletion(obs.OpCtx{}, k, true)
	}
	<-done

	// Batched run: three identical parents in one round.
	hb, parents := batchReady(t, 3, pages, 4)
	reqs := make([]CloneRequest, len(parents))
	meters := make([]*vclock.Meter, len(parents))
	for i, p := range parents {
		meters[i] = vclock.NewMeter(nil)
		reqs[i] = CloneRequest{Caller: p.ID, Target: p.ID, N: n, CopyRing: true, Ctx: obs.Ctx(meters[i])}
	}
	results := hb.CloneBatch(obs.OpCtx{}, reqs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if got, want := meters[i].Elapsed(), soloMeter.Elapsed(); got != want {
			t.Errorf("request %d virtual time = %v, solo run = %v", i, got, want)
		}
		if got, want := r.Stats.FirstStage, soloStats.FirstStage; got != want {
			t.Errorf("request %d FirstStage = %v, solo = %v", i, got, want)
		}
		if got, want := r.Stats.Memory.SharedPages, soloStats.Memory.SharedPages; got != want {
			t.Errorf("request %d SharedPages = %d, solo = %d", i, got, want)
		}
	}
	completeAll(t, hb, results)
}

// TestCloneBatchMultiParent checks the structure of a three-parent round:
// child IDs are reserved in admission order, every parent stays paused
// until its own children complete, and the family links are correct.
func TestCloneBatchMultiParent(t *testing.T) {
	h, parents := batchReady(t, 3, 32, 4)
	reqs := []CloneRequest{
		{Caller: parents[0].ID, Target: parents[0].ID, N: 2, CopyRing: true},
		{Caller: parents[1].ID, Target: parents[1].ID, N: 1, CopyRing: true},
		{Caller: parents[2].ID, Target: parents[2].ID, N: 2, CopyRing: true},
	}
	results := h.CloneBatch(obs.OpCtx{}, reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}

	// IDs are assigned contiguously in admission order.
	next := parents[2].ID + 1
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if len(r.Children) != reqs[i].N {
			t.Fatalf("request %d: %d children, want %d", i, len(r.Children), reqs[i].N)
		}
		for _, k := range r.Children {
			if k != next {
				t.Errorf("request %d child = %d, want %d (admission-order IDs)", i, k, next)
			}
			next++
			c, err := h.Domain(k)
			if err != nil {
				t.Fatalf("child %d missing: %v", k, err)
			}
			if pid, ok := c.Parent(); !ok || pid != reqs[i].Target {
				t.Errorf("child %d parent = %d (%v), want %d", k, pid, ok, reqs[i].Target)
			}
		}
	}

	// All parents are paused until their second stages complete.
	for i, p := range parents {
		if !p.Paused() {
			t.Errorf("parent %d not paused after first stage", i)
		}
	}
	completeAll(t, h, results)
	for i, p := range parents {
		if p.Paused() {
			t.Errorf("parent %d still paused after round completed", i)
		}
	}
}

// TestCloneBatchAdmissionFailureIsolated: a request that fails admission
// (cloning never enabled on its target) reports its error without
// disturbing the neighbouring requests in the round.
func TestCloneBatchAdmissionFailureIsolated(t *testing.T) {
	h, parents := batchReady(t, 2, 32, 4)
	outsider, err := h.DomainCreate(obs.OpCtx{}, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []CloneRequest{
		{Caller: parents[0].ID, Target: parents[0].ID, N: 1, CopyRing: true},
		{Caller: outsider.ID, Target: outsider.ID, N: 1, CopyRing: true},
		{Caller: parents[1].ID, Target: parents[1].ID, N: 1, CopyRing: true},
	}
	results := h.CloneBatch(obs.OpCtx{}, reqs)
	if !errors.Is(results[1].Err, ErrCloningDisabled) {
		t.Fatalf("outsider request error = %v, want ErrCloningDisabled", results[1].Err)
	}
	if outsider.Paused() {
		t.Error("outsider paused by failed admission")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("request %d: %v", i, results[i].Err)
		}
		if len(results[i].Children) != 1 {
			t.Fatalf("request %d: %d children, want 1", i, len(results[i].Children))
		}
	}
	completeAll(t, h, results)
}

// TestCloneBatchFaultGatePerRequest: the fault gate is consulted in
// admission order across the round, so an nth-hit fault lands on a
// deterministic request; that request fails and refunds its budget while
// the others complete untouched.
func TestCloneBatchFaultGatePerRequest(t *testing.T) {
	h, parents := batchReady(t, 2, 32, 4)
	r := fault.NewRegistry()
	// Request 0 consults the gate twice (N=2); the third hit is request
	// 1's first child.
	r.Inject(fault.PointHVCloneOne, fault.FailNth(3), fault.Fatal)
	h.SetFaults(r)
	reqs := []CloneRequest{
		{Caller: parents[0].ID, Target: parents[0].ID, N: 2, CopyRing: true},
		{Caller: parents[1].ID, Target: parents[1].ID, N: 2, CopyRing: true},
	}
	results := h.CloneBatch(obs.OpCtx{}, reqs)
	if results[0].Err != nil {
		t.Fatalf("request 0: %v", results[0].Err)
	}
	if !fault.IsFatal(results[1].Err) {
		t.Fatalf("request 1 error = %v, want fatal fault", results[1].Err)
	}
	if len(results[1].Children) != 0 {
		t.Fatalf("request 1 built %d children past a gate failure", len(results[1].Children))
	}
	if parents[1].Paused() {
		t.Error("failed request left its parent paused")
	}
	completeAll(t, h, results)

	// The failed request refunded its budget and returned its reserved
	// IDs: parent 1 can still use its full allowance.
	h.SetFaults(nil)
	res := h.Clone(CloneRequest{Caller: parents[1].ID, Target: parents[1].ID, N: 4, CopyRing: true})
	kids, done, err := res.Children, res.Done, res.Err
	if err != nil {
		t.Fatalf("post-fault clone: %v", err)
	}
	for _, k := range kids {
		h.CloneCompletion(obs.OpCtx{}, k, true)
	}
	<-done
}
