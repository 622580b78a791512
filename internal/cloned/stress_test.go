package cloned

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nephele/internal/fault"
	"nephele/internal/hv"
	"nephele/internal/obs"
)

// TestStressCloningUnderRandomFaults runs several cloner goroutines
// against one daemon goroutine while an injector keeps arming random fault
// points with random kinds and triggers. Run under -race (the CI
// configuration), it checks the pipeline's liveness and conservation
// properties: no parent ever deadlocks on a failed child, every child ends
// in exactly one terminal state, and the final machine state accounts for
// every clone — completed ones exist and run, aborted ones leave nothing.
func TestStressCloningUnderRandomFaults(t *testing.T) {
	const (
		cloners   = 4
		iters     = 6
		cloneWait = 30 * time.Second
	)

	r := newFaultRig(t, Options{})
	rec := r.bootParent(t)

	var stopDaemon, stopInjector atomic.Bool
	var wgDaemon, wgInjector, wgCloners sync.WaitGroup

	// The daemon: one goroutine draining the ring, like real xencloned.
	wgDaemon.Add(1)
	go func() {
		defer wgDaemon.Done()
		for !stopDaemon.Load() {
			r.d.Serve(obs.OpCtx{})
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// The injector: arms a random pipeline point with a random kind and
	// trigger, sometimes clearing it again.
	wgInjector.Add(1)
	go func() {
		defer wgInjector.Done()
		rng := rand.New(rand.NewSource(42))
		points := fault.PipelinePoints()
		for !stopInjector.Load() {
			p := points[rng.Intn(len(points))]
			kind := fault.Transient
			if rng.Intn(2) == 0 {
				kind = fault.Fatal
			}
			r.faults.Inject(p, fault.FailNth(1+rng.Intn(4)), kind)
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			if rng.Intn(2) == 0 {
				r.faults.Clear(p)
			}
		}
	}()

	// The cloners: concurrent CLONEOP callers, each waiting for its batch
	// to finish the way a forking guest would.
	var mu sync.Mutex
	var created []hv.DomID
	cloneErrs := 0
	for g := 0; g < cloners; g++ {
		wgCloners.Add(1)
		go func(g int) {
			defer wgCloners.Done()
			for i := 0; i < iters; i++ {
				n := 1 + (g+i)%2
				res := r.hv.Clone(hv.CloneRequest{Caller: rec.ID, Target: rec.ID, N: n, CopyRing: true})
				kids, done, err := res.Children, res.Done, res.Err
				mu.Lock()
				created = append(created, kids...)
				if err != nil {
					cloneErrs++
				}
				mu.Unlock()
				if err != nil {
					// First-stage fault: no completion to wait for (a
					// partial batch's survivors complete asynchronously).
					continue
				}
				select {
				case <-done:
				case <-time.After(cloneWait):
					t.Errorf("cloner %d: parent completion wait never released (deadlock)", g)
					return
				}
			}
		}(g)
	}

	wgCloners.Wait()
	stopInjector.Store(true)
	wgInjector.Wait()
	stopDaemon.Store(true)
	wgDaemon.Wait()
	if t.Failed() {
		return
	}

	// Disarm everything and drain stragglers (children of partially failed
	// batches whose notifications were still queued).
	r.faults.Reset()
	if _, err := r.d.Serve(obs.OpCtx{}); err != nil {
		t.Fatalf("final drain failed with injection disarmed: %v", err)
	}
	if pending := r.hv.PendingNotifications(); pending != 0 {
		t.Fatalf("%d notifications left in the ring", pending)
	}

	// Conservation: every created child has exactly one terminal outcome.
	var completed, aborted []hv.DomID
	for _, k := range created {
		out, ok := r.hv.CloneOutcome(k)
		if !ok {
			t.Fatalf("child %d has no terminal outcome", k)
		}
		switch out {
		case hv.OutcomeCompleted:
			completed = append(completed, k)
		case hv.OutcomeAborted:
			aborted = append(aborted, k)
		default:
			t.Fatalf("child %d in non-terminal state %v", k, out)
		}
	}
	t.Logf("clones: %d created, %d completed, %d aborted, %d clone calls failed",
		len(created), len(completed), len(aborted), cloneErrs)

	// Completed children exist and run; aborted ones left nothing behind.
	for _, k := range completed {
		d, err := r.hv.Domain(k)
		if err != nil {
			t.Fatalf("completed child %d missing from the hypervisor", k)
		}
		if d.Paused() {
			t.Errorf("completed child %d left paused", k)
		}
		if _, err := r.xl.Record(k); err != nil {
			t.Errorf("completed child %d missing from the toolstack", k)
		}
	}
	for _, k := range aborted {
		if _, err := r.hv.Domain(k); err == nil {
			t.Errorf("aborted child %d still in the hypervisor", k)
		}
		if r.store.Exists(fmt.Sprintf("/local/domain/%d", k), nil) {
			t.Errorf("aborted child %d left Xenstore residue", k)
		}
	}
	if got, want := r.hv.DomainCount(), 2+len(completed); got != want {
		t.Fatalf("domain count = %d, want %d (Dom0 + parent + completed clones); domains %v, created %v",
			got, want, r.hv.Domains(), created)
	}
	if got := r.d.Served(); got != len(completed) {
		t.Fatalf("daemon served %d, but %d children completed", got, len(completed))
	}
	st := r.d.FailureStats()
	if st.Aborts != len(aborted) {
		t.Fatalf("stats report %d aborts, but %d children aborted", st.Aborts, len(aborted))
	}
	if st.Failures != st.Aborts {
		t.Fatalf("stats = %+v: every terminal failure must have exactly one abort", st)
	}
	if pd, _ := r.hv.Domain(rec.ID); pd.Paused() {
		t.Fatal("parent left paused after the storm")
	}
}
