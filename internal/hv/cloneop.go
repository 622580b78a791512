package hv

import (
	"fmt"
	"runtime"
	"sync"

	"nephele/internal/evtchn"
	"nephele/internal/fault"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// CloneOutcome is the terminal state of one child's trip through the
// two-stage pipeline.
type CloneOutcome int

const (
	// OutcomePending: the child exists but xencloned has not reported
	// completion or abort yet.
	OutcomePending CloneOutcome = iota
	// OutcomeCompleted: the second stage finished and the child runs (or
	// stays paused if so configured).
	OutcomeCompleted
	// OutcomeAborted: the second stage failed; the child was destroyed
	// and its resources released.
	OutcomeAborted
)

func (o CloneOutcome) String() string {
	switch o {
	case OutcomePending:
		return "pending"
	case OutcomeCompleted:
		return "completed"
	case OutcomeAborted:
		return "aborted"
	default:
		return fmt.Sprintf("CloneOutcome(%d)", int(o))
	}
}

// CloneOpStats reports the work done by one first-stage clone, for the
// microbenchmark drivers.
type CloneOpStats struct {
	Memory mem.CloneStats
	Events evtchn.CloneStats
	Grants int
	VCPUs  int
	// FirstStage is the virtual time spent inside the hypervisor for
	// this clone (§6.1 reports ~1 ms for a 4 MB guest).
	FirstStage vclock.Duration
}

// DomctlSetCloning enables or disables cloning for a domain and sets the
// maximum number of clones — the domctl extension of §5.1. A guest can be
// cloned only if its configuration allows a non-zero maximum.
func (h *Hypervisor) DomctlSetCloning(id DomID, enabled bool, maxClones int) error {
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clone.enabled = enabled
	d.clone.maxClones = maxClones
	return nil
}

// SetCloningEnabled toggles cloning globally; xencloned enables it when it
// starts (§5.1).
func (h *Hypervisor) SetCloningEnabled(on bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cloningEnabled = on
}

// CloneRequest is one parent's CLONEOP in a multi-parent scheduling round.
// Caller is the domain invoking the hypercall (the parent itself, or Dom0
// on its behalf); Target is the parent to clone N times. Ctx carries the
// request's meter, active span and fault scope; a context without a meter
// gets a throwaway one.
type CloneRequest struct {
	Caller   DomID
	Target   DomID
	N        int
	CopyRing bool
	// Mode selects eager (the zero value) or lazy child population; lazy
	// children stream their regular pages in the background after the
	// first stage returns (see mem.CloneLazy and WaitStreamed).
	Mode mem.CloneMode
	Ctx  obs.OpCtx
}

// CloneResult is the outcome of one clone request — the same shape for the
// single-request Clone and each entry of a CloneBatch round.
type CloneResult struct {
	Children []DomID
	Stats    *CloneOpStats
	Done     <-chan struct{}
	Err      error
}

// Clone is the clone subcommand of the CLONEOP hypercall: it runs the
// first stage of cloning for the calling domain (or, when invoked from
// Dom0, for an explicitly named domain — e.g. for VM fuzzing), creating
// req.N children whose IDs are returned, mirroring the array the real
// hypercall fills in. The parent is paused until xencloned completes the
// second stage for every child; the result's Done channel is closed once
// all completions arrived and the parent has been resumed, so callers can
// block on it for fork()-like synchronous semantics.
//
// req.CopyRing selects the I/O-ring clone policy for the address-space
// pages tagged KindIORing (network rings are copied; the console ring page
// is a distinct kind and always fresh).
//
// It is a scheduling round of one: see CloneBatch for the
// admission/build/merge structure and the determinism argument.
func (h *Hypervisor) Clone(req CloneRequest) CloneResult {
	return h.CloneBatch(obs.OpCtx{}, []CloneRequest{req})[0]
}

// CloneBatch admits CLONEOPs from several independent parents into
// one scheduling round. The round has three phases:
//
//  1. Admission, strictly in request order: each request charges its
//     hypercall, validates cloning policy and budget, pauses its parent,
//     reserves its child ID range and consults the fault gate — so domain
//     numbering and fault hit counts are deterministic functions of the
//     request order, never of build timing.
//  2. Build: the children of every admitted request go through ONE bounded
//     worker pool (GOMAXPROCS wide), each built against a private meter.
//     Independent parents' children interleave freely here; with the
//     sharded frame pool their memory operations lock disjoint shards.
//  3. Merge, per request in admission order: each request's child meters,
//     stats, family links and notifications merge in child order onto that
//     request's own meter, exactly as the sequential loop would.
//
// Each request's meter only ever receives that request's charges, so the
// virtual-time output of any single request is byte-identical to running
// it alone (the golden-series figures are insensitive to batching), while
// the wall-clock cost of the round is one pool-wide fan-out.
//
// rctx is the round-level context: it carries the round's span scope
// (cloned.CloneRound passes its own), under which multi-request rounds
// open a batch-admit span covering the affinity planning; each request's
// charges go to its own Ctx. Admission itself — charges, policy checks,
// parent pauses, ID reservation, fault gates — runs strictly in request
// order regardless of the plan, so everything a request's meter or the
// fault matrix observes stays a pure function of the request slice; the
// plan only permutes the order the build pool dequeues children, which
// phase 3 re-serializes anyway. Rounds of one request skip planning
// entirely (no span, no metric), keeping the single-parent pipeline and
// its golden trace untouched.
func (h *Hypervisor) CloneBatch(rctx obs.OpCtx, reqs []CloneRequest) []CloneResult {
	adms := make([]cloneAdmission, len(reqs))
	jobs := 0
	for i := range reqs {
		adms[i].req = reqs[i]
		h.admitClone(&adms[i])
		if adms[i].err == nil {
			jobs += adms[i].attempt
		}
	}

	// One bounded worker pool across every admitted request's children.
	// Multi-request rounds order the job list by shard affinity: requests
	// whose shard sets are disjoint are packed into the same wave and their
	// children interleaved, so neighbouring jobs in the queue — the ones
	// the pool runs concurrently — contend on disjoint shard locks.
	type job struct {
		a *cloneAdmission
		i int
	}
	list := make([]job, 0, jobs)
	if len(reqs) > 1 {
		_, span := rctx.StartSpan("batch-admit")
		admitted := make([]int, 0, len(adms))
		masks := make([]uint32, 0, len(adms))
		for ai := range adms {
			if adms[ai].err != nil {
				continue
			}
			admitted = append(admitted, ai)
			masks = append(masks, h.shardMask(&adms[ai]))
		}
		// PlanWaves feeds the conflicts metric — a pool-width-independent
		// measure of how well the batch packs — while PackOrder derives the
		// actual dequeue order for this machine's pool width at the child-
		// job level: children of one request share its mask, so packing
		// interleaves different requests' children and neighbouring jobs in
		// the queue contend on disjoint shard locks.
		_, conflicts := mem.PlanWaves(masks)
		h.met.shardConflicts.Add(int64(conflicts))
		flat := make([]job, 0, jobs)
		jobMasks := make([]uint32, 0, jobs)
		for wi, ai := range admitted {
			a := &adms[ai]
			for i := 0; i < a.attempt; i++ {
				flat = append(flat, job{a: a, i: i})
				jobMasks = append(jobMasks, masks[wi])
			}
		}
		order, _ := mem.PackOrder(jobMasks, runtime.GOMAXPROCS(0))
		for _, k := range order {
			list = append(list, flat[k])
		}
		span.End()
	} else {
		for ai := range adms {
			if adms[ai].err != nil {
				continue
			}
			for i := 0; i < adms[ai].attempt; i++ {
				list = append(list, job{a: &adms[ai], i: i})
			}
		}
	}
	buildOne := func(j job) {
		// Each child builds against a private meter and, when tracing, a
		// private sub-trace; both merge in child order during the finish
		// phase, so neither virtual time nor span order depends on build
		// scheduling.
		cctx, sub := j.a.ctx.Detach()
		child, st, err := h.cloneOne(j.a.parent, j.a.ids[j.i], j.a.req.CopyRing, j.a.req.Mode, cctx)
		j.a.results[j.i] = cloneResult{child: child, st: st, meter: cctx.Meter(), sub: sub, err: err}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(list) {
		workers = len(list)
	}
	if workers <= 1 {
		for _, j := range list {
			buildOne(j)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan job)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range work {
					buildOne(j)
				}
			}()
		}
		for _, j := range list {
			work <- j
		}
		close(work)
		wg.Wait()
	}

	out := make([]CloneResult, len(reqs))
	for i := range adms {
		out[i] = h.finishClone(&adms[i])
	}
	return out
}

// shardMask predicts the set of shard locks one admitted request's build
// jobs will take: the shards the parent's frames occupy (the sharer-bump
// pass walks all of them) plus the home shards of the reserved child IDs
// (where each child's page-table, p2m and overhead frames are allocated).
// The mask is advisory — scheduling input, never a correctness input.
func (h *Hypervisor) shardMask(a *cloneAdmission) uint32 {
	mask := a.parent.Space().ShardOccupancy()
	for _, id := range a.ids {
		mask |= 1 << h.Memory.HomeShard(id)
	}
	return mask
}

// cloneResult is one child's build outcome, carrying its private meter and
// sub-trace until the in-order merge.
type cloneResult struct {
	child *Domain
	st    *CloneOpStats
	meter *vclock.Meter
	sub   *obs.Trace
	err   error
}

// cloneAdmission is one request's validated, ID-reserved seat in a
// scheduling round.
type cloneAdmission struct {
	req     CloneRequest
	ctx     obs.OpCtx // resolved context; its span is the request's root span
	span    obs.Span  // the open clone-request span (zero when untraced)
	meter   *vclock.Meter
	parent  *Domain
	start   vclock.Duration
	ids     []DomID
	attempt int // children to build (N, cut short by the fault gate)
	gateErr error
	err     error // admission failure; nothing to build or unwind
	results []cloneResult
}

// admitClone runs the admission phase for one request: hypercall charge,
// policy and budget validation, parent pause, child ID reservation and the
// fault gate, in exactly the order the sequential clone loop performed
// them.
func (h *Hypervisor) admitClone(a *cloneAdmission) {
	ctx := a.req.Ctx.EnsureMeter(nil)
	// The request's root span opens before any charge so every phase nests
	// under it; span bookkeeping itself charges nothing, keeping the golden
	// virtual-time series identical with tracing on or off.
	a.ctx, a.span = ctx.StartSpan("clone-request")
	meter := a.ctx.Meter()
	a.meter = meter
	meter.Charge(meter.Costs().Hypercall, 1)

	h.mu.Lock()
	enabled := h.cloningEnabled
	h.mu.Unlock()
	if !enabled {
		a.err = fmt.Errorf("%w (global)", ErrCloningDisabled)
		return
	}
	if a.req.Caller != mem.DomID0 && a.req.Caller != a.req.Target {
		a.err = fmt.Errorf("hv: domain %d may not clone %d", a.req.Caller, a.req.Target)
		return
	}
	parent, err := h.Domain(a.req.Target)
	if err != nil {
		a.err = err
		return
	}
	n := a.req.N
	parent.mu.Lock()
	if !parent.clone.enabled || parent.clone.maxClones == 0 {
		parent.mu.Unlock()
		a.err = fmt.Errorf("%w: domain %d", ErrCloningDisabled, a.req.Target)
		return
	}
	if parent.clone.made+n > parent.clone.maxClones {
		parent.mu.Unlock()
		a.err = fmt.Errorf("%w: %d made, %d requested, max %d",
			ErrCloneLimit, parent.clone.made, n, parent.clone.maxClones)
		return
	}
	parent.clone.made += n
	parent.mu.Unlock()
	a.parent = parent

	// The parent is paused until the completion of the second stage so
	// its state stays consistent for all its clones (§5).
	parent.pause()
	a.start = meter.Elapsed()

	// Reserve the child IDs up front so concurrent construction cannot
	// reorder domain numbering.
	a.ids = make([]DomID, n)
	h.mu.Lock()
	for i := range a.ids {
		a.ids[i] = h.nextDom
		h.nextDom++
	}
	h.mu.Unlock()

	// Fault-injection gate, consulted in child order before any parallel
	// work so per-point hit counts fire against the same child index as
	// the sequential loop. An OpCtx fault scope overrides the component
	// registry for this request only.
	faults := a.ctx.Faults(h.Faults())
	a.attempt = n
	for i := 0; i < n; i++ {
		if err := faults.Check(fault.PointHVCloneOne); err != nil {
			a.attempt, a.gateErr = i, err
			break
		}
	}
	a.results = make([]cloneResult, a.attempt)
}

// finishClone runs the merge phase for one request: meters, stats, the
// family links and the notification ring all observe the sequential child
// ordering. The first failure wins (like the sequential loop stopping
// there); speculative successes past it are torn down with no virtual-time
// charge, since a sequential run would never have built them.
func (h *Hypervisor) finishClone(a *cloneAdmission) CloneResult {
	if a.err != nil {
		a.span.End()
		h.met.cloneFailures.Inc()
		return CloneResult{Err: a.err}
	}
	meter, parent, n := a.meter, a.parent, a.req.N
	trace := a.ctx.Trace()
	stats := &CloneOpStats{}
	children := make([]DomID, 0, n)
	var waits []chan struct{}
	var retErr error
	usedIDs := a.attempt // IDs a sequential run would have consumed
	for i := 0; i < a.attempt; i++ {
		r := a.results[i]
		if retErr != nil {
			if r.err == nil {
				h.DomainDestroy(obs.OpCtx{}, r.child.ID)
			}
			continue
		}
		// Merge the child's private meter and sub-trace at the same offset:
		// the spans land exactly where the sequential loop would have put
		// them on the virtual timeline. Speculative successes past the first
		// failure merge neither (a sequential run never built them).
		offset := meter.Elapsed()
		meter.Add(r.meter.Elapsed())
		trace.Absorb(r.sub, a.ctx.SpanID(), offset)
		if r.err != nil {
			retErr = r.err
			usedIDs = i + 1
			continue
		}
		parent.mu.Lock()
		parent.children = append(parent.children, r.child.ID)
		parent.mu.Unlock()
		stats.Memory.SharedPages += r.st.Memory.SharedPages
		stats.Memory.PrivateCopies += r.st.Memory.PrivateCopies
		stats.Memory.PrivateFresh += r.st.Memory.PrivateFresh
		stats.Memory.PTEntries += r.st.Memory.PTEntries
		stats.Memory.P2MEntries += r.st.Memory.P2MEntries
		stats.Memory.MetaFrames += r.st.Memory.MetaFrames
		stats.Memory.Extents += r.st.Memory.Extents
		stats.Memory.Deferred += r.st.Memory.Deferred
		stats.Events.Cloned += r.st.Events.Cloned
		stats.Events.IDCBound += r.st.Events.IDCBound
		stats.Grants += r.st.Grants
		stats.VCPUs += r.st.VCPUs
		h.met.extents.Observe(int64(r.st.Memory.Extents))

		// Queue the notification for xencloned and raise VIRQ_CLONED.
		nctx, nspan := a.ctx.StartSpan("notify-push")
		wait, err := h.pushNotification(nctx, parent, r.child)
		nspan.End()
		if err != nil {
			// The child was fully created but can never complete:
			// tear it down and refund the unused budget.
			h.DomainDestroy(obs.OpCtx{}, r.child.ID)
			retErr = err
			usedIDs = i + 1
			continue
		}
		children = append(children, r.child.ID)
		waits = append(waits, wait)
	}
	if retErr == nil && a.gateErr != nil {
		// Every child before the fault-gate failure succeeded; the gate
		// itself is the first failure, exactly where the sequential loop
		// would have stopped.
		retErr = a.gateErr
	}
	if retErr != nil {
		// Return unused reserved IDs when no concurrent caller took more
		// in the meantime, so failure paths consume the same ID range as
		// a sequential run.
		h.mu.Lock()
		if h.nextDom == a.ids[n-1]+1 {
			h.nextDom = a.ids[0] + DomID(usedIDs)
		}
		h.mu.Unlock()
		parent.mu.Lock()
		parent.clone.made -= n - len(children)
		parent.mu.Unlock()
		parent.unpause()
		a.span.End()
		h.met.cloneFailures.Inc()
		return CloneResult{Children: children, Stats: stats, Err: retErr}
	}
	stats.FirstStage = meter.Lap(a.start)
	h.Events.RaiseVIRQ(evtchn.VIRQCloned, meter)
	// The request span covers the first stage only; the parent-paused wait
	// for the second stage is the platform layer's span.
	a.span.End()
	h.met.recordClone(stats, len(children))

	done := make(chan struct{})
	go func() {
		for _, w := range waits {
			<-w
		}
		parent.unpause()
		close(done)
	}()
	return CloneResult{Children: children, Stats: stats, Done: done}
}

// cloneOne performs the hypervisor first stage for a single child with a
// pre-reserved domain ID. On any failure the partial child state is
// unwound: every allocated frame is returned, so a clone that dies of
// memory pressure leaves the parent exactly as it was. The caller owns the
// clone budget, the fault-injection gate and the parent.children link.
func (h *Hypervisor) cloneOne(parent *Domain, id DomID, copyRing bool, mode mem.CloneMode, ctx obs.OpCtx) (child *Domain, st *CloneOpStats, err error) {
	meter := ctx.Meter()
	ctx, cspan := ctx.StartSpan("clone-child")
	defer cspan.End()
	defer func() {
		if err == nil {
			return
		}
		// Release whatever the child accumulated.
		if child != nil {
			child.mu.Lock()
			cspace := child.space
			child.mu.Unlock()
			if cspace != nil {
				cspace.Release()
			}
		}
		h.mu.Lock()
		for _, mfn := range h.overhead[id] {
			h.Memory.Free(id, mfn)
		}
		delete(h.overhead, id)
		delete(h.domains, id)
		h.mu.Unlock()
		h.Events.RemoveDomain(id)
		h.Grants.RemoveDomain(id)
		child = nil
	}()

	st = &CloneOpStats{}

	_, vspan := ctx.StartSpan("vcpu-copy")
	parent.mu.Lock()
	child = newDomain(id, len(parent.vcpus))
	// vCPU state: affinity and user registers are replicated; RAX
	// differs — 0 for the parent, 1 for any child, like fork() (§5.2).
	for i, pv := range parent.vcpus {
		cv := child.vcpus[i]
		*cv = *pv
		cv.Regs.RAX = 1
		pv.Regs.RAX = 0
	}
	st.VCPUs = len(parent.vcpus)
	child.StartInfoPFN = parent.StartInfoPFN
	child.ConsolePFN = parent.ConsolePFN
	child.XenstorePFN = parent.XenstorePFN
	child.parent = parent.ID
	child.hasParent = true
	child.clone = cloneConfig{enabled: parent.clone.enabled, maxClones: parent.clone.maxClones}
	pspace := parent.space
	parent.mu.Unlock()

	if meter != nil {
		meter.Charge(meter.Costs().DomainCreate, 1)
		meter.Charge(meter.Costs().VCPUClone, st.VCPUs)
	}
	vspan.End()

	// Memory: COW-share regular pages, duplicate/rewrite private ones,
	// rebuild page table and p2m (§5.2). Lazy mode stamps only the hot
	// extents now and leaves the rest to a background streamer; the
	// streamer outlives this span, so it carries the fault registry
	// explicitly (its context would otherwise lose the component scope).
	spanName := "space-clone"
	if mode == mem.CloneLazy {
		spanName = "space-clone-lazy"
	}
	sctx, sspan := ctx.StartSpan(spanName)
	if mode == mem.CloneLazy {
		sctx = sctx.WithFaults(sctx.Faults(h.Faults()))
	}
	cspace, mst, err := pspace.CloneOp(sctx, id, copyRing, mode)
	sspan.End()
	if err != nil {
		return nil, nil, err
	}
	st.Memory = mst
	child.mu.Lock()
	child.space = cspace
	child.mu.Unlock()

	ov, err := h.Memory.AllocN(id, h.cfg.PerDomainOverheadFrames, meter)
	if err != nil {
		cspace.Release()
		return nil, nil, err
	}

	// Children start paused; xencloned resumes them after stage two.
	child.pause()

	h.mu.Lock()
	h.domains[id] = child
	h.overhead[id] = ov
	h.mu.Unlock()

	// Event channels and grant table.
	h.Events.AddDomain(id, nil)
	h.Grants.AddDomain(id)
	_, espan := ctx.StartSpan("event-channels")
	est, err := h.Events.CloneDomain(parent.ID, id, meter)
	espan.End()
	if err != nil {
		return nil, nil, err
	}
	st.Events = est
	_, gspan := ctx.StartSpan("grant-table")
	xlate := func(m mem.MFN) mem.MFN { return m } // shared frames keep their MFN
	gst, err := h.Grants.CloneDomain(parent.ID, id, xlate, meter)
	gspan.End()
	if err != nil {
		return nil, nil, err
	}
	st.Grants = gst.Cloned
	return child, st, nil
}

// pushNotification appends a clone notification, returning the channel the
// first stage waits on. A full ring back-pressures cloning by failing.
func (h *Hypervisor) pushNotification(ctx obs.OpCtx, parent, child *Domain) (chan struct{}, error) {
	meter := ctx.Meter()
	if err := ctx.Faults(h.Faults()).Check(fault.PointHVNotifyPush); err != nil {
		return nil, err
	}
	parentSI, _ := parent.Space().MFNOf(parent.StartInfoPFN)
	childSI, _ := child.Space().MFNOf(child.StartInfoPFN)
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.notify.push(CloneNotification{
		Parent:        parent.ID,
		Child:         child.ID,
		ParentSIFrame: parentSI,
		ChildSIFrame:  childSI,
	}); err != nil {
		return nil, err
	}
	wait := make(chan struct{})
	h.completionWaits[child.ID] = wait
	if meter != nil {
		meter.Charge(meter.Costs().CloneRingPush, 1)
	}
	return wait, nil
}

// PopNotifications drains the clone-notification ring; xencloned calls
// this when VIRQ_CLONED fires.
func (h *Hypervisor) PopNotifications() []CloneNotification {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.notify.popAll()
}

// PendingNotifications reports the ring depth without draining.
func (h *Hypervisor) PendingNotifications() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.notify.len()
}

// CloneCompletion is the clone_completion subcommand: xencloned reports
// that all userspace operations for child are done (§5.1). Completion
// events arrive asynchronously and out of order across guests.
func (h *Hypervisor) CloneCompletion(ctx obs.OpCtx, child DomID, resumeChild bool) error {
	meter := ctx.Meter()
	_, span := ctx.StartSpan("clone-completion")
	defer span.End()
	if meter != nil {
		meter.Charge(meter.Costs().Hypercall, 1)
	}
	h.met.completions.Inc()
	h.mu.Lock()
	wait := h.completionWaits[child]
	delete(h.completionWaits, child)
	if wait != nil {
		h.outcomes[child] = OutcomeCompleted
	}
	h.mu.Unlock()
	if wait == nil {
		return fmt.Errorf("%w: domain %d", ErrNoPendingClone, child)
	}
	if resumeChild {
		if d, err := h.Domain(child); err == nil {
			d.unpause()
		}
	}
	close(wait)
	return nil
}

// CloneAbort is the clone_abort subcommand: xencloned reports that the
// second stage for child failed irrecoverably. The hypervisor destroys the
// half-clone (releasing its COW references, overhead frames, event
// channels and grant entries), unlinks it from the family tree, refunds
// the parent's clone budget, records the child as aborted and closes the
// parent's completion wait so the parent resumes instead of deadlocking on
// a child that will never complete.
func (h *Hypervisor) CloneAbort(ctx obs.OpCtx, child DomID) error {
	meter := ctx.Meter()
	_, span := ctx.StartSpan("clone-abort")
	defer span.End()
	if meter != nil {
		meter.Charge(meter.Costs().Hypercall, 1)
	}
	h.met.aborts.Inc()
	h.mu.Lock()
	wait := h.completionWaits[child]
	delete(h.completionWaits, child)
	if wait != nil {
		h.outcomes[child] = OutcomeAborted
	}
	// Drop any still-queued notification for the child: an abort may
	// arrive before the daemon drained the ring (e.g. a second daemon
	// instance or an operator intervention). The indexed ring makes this
	// O(1) instead of a scan of every queued clone.
	h.notify.drop(child)
	h.mu.Unlock()
	if wait == nil {
		return fmt.Errorf("%w: domain %d", ErrNoPendingClone, child)
	}

	// Refund the parent's clone budget before tearing the child down
	// (DomainDestroy unlinks the family edge).
	var destroyErr error
	if d, err := h.Domain(child); err == nil {
		if parentID, has := d.Parent(); has {
			if p, err := h.Domain(parentID); err == nil {
				p.mu.Lock()
				p.clone.made--
				p.mu.Unlock()
			}
		}
		destroyErr = h.DomainDestroy(ctx, child)
	}
	// The parent must unblock no matter how the teardown went.
	close(wait)
	return destroyErr
}

// CloneOutcome reports the recorded terminal state of a child that went
// through the clone pipeline; ok is false for domains that never did (or
// whose second stage is still pending).
func (h *Hypervisor) CloneOutcome(child DomID) (CloneOutcome, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	o, ok := h.outcomes[child]
	return o, ok
}

// CloneCOW is the clone_cow subcommand added for KFX fuzzing (§7.2): it
// triggers COW explicitly for the given guest pages so breakpoints can be
// inserted in the clone's code regions without touching the family-shared
// frames.
func (h *Hypervisor) CloneCOW(ctx obs.OpCtx, id DomID, pfns []mem.PFN) error {
	meter := ctx.Meter()
	_, span := ctx.StartSpan("clone-cow")
	defer span.End()
	if meter != nil {
		meter.Charge(meter.Costs().Hypercall, 1)
	}
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	for _, pfn := range pfns {
		if err := d.Space().TouchCOW(pfn, meter); err != nil {
			return err
		}
		h.met.cowPages.Inc()
	}
	return nil
}

// WaitStreamed blocks until the background streamer of a lazily cloned
// child has materialized every deferred page, then merges the streamer's
// virtual time and sub-trace onto ctx with the Detach/Absorb pattern: the
// streamer's spans land at the caller's current virtual offset, as if the
// deferred work had run inline here. The merge happens at most once; a
// second wait only re-reports the stream's terminal error. Eagerly cloned
// domains (no streamer) return immediately with a nil error.
func (h *Hypervisor) WaitStreamed(ctx obs.OpCtx, id DomID) error {
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	sm, sub, werr := d.Space().WaitLazy()
	if sm != nil {
		if meter := ctx.Meter(); meter != nil {
			offset := meter.Elapsed()
			meter.Add(sm.Elapsed())
			ctx.Trace().Absorb(sub, ctx.SpanID(), offset)
		} else {
			ctx.Trace().Absorb(sub, ctx.SpanID(), 0)
		}
	}
	return werr
}

// CloneReset is the clone_reset subcommand (§7.2): it restores the clone's
// dirtied pages to the family-shared state so a fuzzing iteration starts
// from the parent's memory image. Pages that were COW-broken are re-shared
// with the parent's current frames. It returns the number of pages restored
// (the paper reports ~3 dirty pages per iteration for Unikraft vs ~8 for a
// Linux guest).
func (h *Hypervisor) CloneReset(ctx obs.OpCtx, child DomID) (int, error) {
	meter := ctx.Meter()
	_, span := ctx.StartSpan("clone-reset")
	defer span.End()
	if meter != nil {
		meter.Charge(meter.Costs().Hypercall, 1)
	}
	d, err := h.Domain(child)
	if err != nil {
		return 0, err
	}
	parentID, has := d.Parent()
	if !has {
		return 0, fmt.Errorf("hv: domain %d is not a clone", child)
	}
	p, err := h.Domain(parentID)
	if err != nil {
		return 0, err
	}
	restored, err := resetSpace(d.Space(), p.Space(), h.Memory, meter)
	h.met.resetCalls.Inc()
	h.met.resetPages.Add(int64(restored))
	return restored, err
}

// resetSpace re-points every privately-dirtied regular page of child back
// at the parent's frame (re-sharing it) and frees the private copy. The
// working set is the child's recorded COW-fault list, so reset cost is
// proportional to dirtied pages, as on real Xen where the dirty log drives
// the restore.
func resetSpace(child, parent *mem.Space, machine *mem.Memory, meter *vclock.Meter) (int, error) {
	// A lazily cloned child may still have its streamer installing pages:
	// drain it first so the dirty walk and the re-sharing below run
	// against a settled page table. The streamer's virtual time folds
	// into the reset meter — the reset could not proceed before it.
	if sm, _, err := child.WaitLazy(); err != nil {
		return 0, err
	} else if sm != nil && meter != nil {
		meter.Add(sm.Elapsed())
	}
	restored := 0
	reShared := false
	var firstErr error
	for _, pfn := range child.TakeDirty() {
		k, err := child.Kind(pfn)
		if err != nil || k != mem.KindRegular {
			continue
		}
		cm, err := child.MFNOf(pfn)
		if err != nil {
			continue
		}
		owner, err := machine.Owner(cm)
		if err != nil {
			continue
		}
		if owner != child.Dom() {
			continue // still shared; clean
		}
		// Dirty page: drop the private copy and re-attach to the
		// parent's current frame for that pfn, re-sharing it if the
		// parent holds it privately (e.g. the parent faulted too).
		pm, err := parent.MFNOf(pfn)
		if err != nil {
			firstErr = err
			break
		}
		powner, err := machine.Owner(pm)
		if err != nil {
			firstErr = err
			break
		}
		switch powner {
		case mem.DomIDCOW:
			if err := machine.AddSharer(pm, 1); err != nil {
				firstErr = err
			}
		case parent.Dom():
			if err := machine.Share(parent.Dom(), pm, 2, meter); err != nil {
				firstErr = err
			} else {
				reShared = true
			}
		default:
			firstErr = fmt.Errorf("hv: clone_reset: parent pfn %d frame owned by %d", pfn, powner)
		}
		if firstErr != nil {
			break
		}
		if err := child.Remap(pfn, pm, true); err != nil {
			// The child will never consume the sharer reference taken
			// above: drop it so a failed reset does not leak a
			// reference on the parent's frame. The frame stays with
			// dom_cow (the parent as sole sharer) and MarkAllCOW below
			// keeps the parent write-protected on it.
			_ = machine.DropShared(pm)
			firstErr = err
			break
		}
		restored++
	}
	if reShared {
		// Frames newly moved to dom_cow must be COW-protected in the
		// parent as well — including the ones re-shared by iterations
		// before a failure, which the old early returns skipped.
		parent.MarkAllCOW()
	}
	if meter != nil {
		meter.Charge(meter.Costs().CloneResetPage, restored)
	}
	// A non-nil firstErr means this iteration's AddSharer/Share either
	// failed (nothing acquired) or its reference was dropped by the Remap
	// failure path above; earlier iterations' references were consumed by
	// their successful Remaps. refleak cannot see the firstErr-implies-
	// unwound correlation across the branch join.
	//nephele:refleak-ok balanced via the firstErr invariant documented above
	return restored, firstErr
}
