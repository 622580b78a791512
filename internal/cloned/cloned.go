// Package cloned implements xencloned, the new toolstack daemon that runs
// the second stage of cloning in the host domain (§4.2, §5): it consumes
// clone notifications from the hypervisor ring (woken by VIRQ_CLONED),
// introduces each child to xenstored, clones the device registry entries
// with xs_clone requests, triggers the backend drivers to create
// pre-connected clone devices, performs the userspace finalization (udev
// handling, switch enslavement, 9pfs QMP cloning), and finally reports
// completion back through the CLONEOP hypercall.
package cloned

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"nephele/internal/devices"
	"nephele/internal/fault"
	"nephele/internal/hv"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
	"nephele/internal/xenstore"
)

// Options tune the daemon; the defaults match the paper's design, the
// alternatives are the ablations of §6.1.
type Options struct {
	// UseDeepCopy replaces xs_clone with the client-side deep copy (one
	// request per node) — the "clone + XS deep copy" series of Fig. 4.
	UseDeepCopy bool
	// DisableCache turns off the parent-info caching that makes second
	// and later clones cheaper (3 ms -> 1.9 ms, §6.2).
	DisableCache bool
	// SkipDevices limits the second stage to the mandatory operations
	// (toolstack introduction), the configuration used by the Fig. 6
	// memory-scaling experiment.
	SkipDevices bool
	// SkipNetworkDevices skips vif cloning only (the Redis experiment
	// clones no network devices, §7.1).
	SkipNetworkDevices bool
	// LeaveChildrenPaused keeps clones paused after completion (the
	// configuration knob of §5).
	LeaveChildrenPaused bool
	// PinCloneVCPUs pins each clone's vCPUs to successive physical
	// cores, round robin — the §9 mitigation for missing SMP support
	// ("lack of SMP support can be mitigated by running clones on
	// different CPUs") and the per-core NGINX worker setup of §7.1.
	PinCloneVCPUs bool
	// HostCores is the physical core count used for pinning (the
	// paper's machine has 4).
	HostCores int
	// MaxRetries bounds the retry attempts after a transient
	// second-stage failure; 0 selects DefaultMaxRetries, a negative
	// value disables retries.
	MaxRetries int
}

// DefaultMaxRetries is the retry budget for transient second-stage faults
// when Options.MaxRetries is zero.
const DefaultMaxRetries = 3

// retryBudget resolves the effective retry count.
func (o Options) retryBudget() int {
	switch {
	case o.MaxRetries < 0:
		return 0
	case o.MaxRetries == 0:
		return DefaultMaxRetries
	default:
		return o.MaxRetries
	}
}

// FailureStats counts the daemon's failure handling activity. It is a
// point-in-time read of the daemon's registry counters (the hypervisor's
// metrics registry is the single source of truth), kept as a struct so
// existing callers and tests keep working.
type FailureStats struct {
	// Failures is the number of second stages that ultimately failed
	// (fatal fault, or transient retries exhausted).
	Failures int
	// Retries is the number of retry attempts made after transient
	// faults.
	Retries int
	// Rollbacks is the number of partial-clone rollbacks performed
	// (one before every retry and every abort).
	Rollbacks int
	// Aborts is the number of clone_abort hypercalls (hv.CloneAbort) issued.
	Aborts int
}

// clonedMetrics caches the daemon's instruments in the shared registry.
type clonedMetrics struct {
	failures      *obs.Counter   // cloned.failures
	retries       *obs.Counter   // cloned.retries
	rollbacks     *obs.Counter   // cloned.rollbacks
	aborts        *obs.Counter   // cloned.aborts
	secondStageUS *obs.Histogram // cloned.second_stage_us: per-child second-stage virtual time
}

// parentInfo is the cached Xenstore view of a parent domain, read once on
// its first clone and reused afterwards.
type parentInfo struct {
	name     string
	consoles []int
	vifs     []int
	ninePs   []int
	vbds     []int
	// snapshots caches parent device subtrees (by root path) for the
	// deep-copy ablation, so later clones skip re-reading the store.
	snapshots map[string][]xenstore.Pair
}

// Daemon is the xencloned process.
type Daemon struct {
	HV       *hv.Hypervisor
	Store    *xenstore.Store
	XL       *toolstack.XL
	Backends toolstack.Backends
	Net      toolstack.Switch
	Opts     Options

	mu    sync.Mutex
	cache map[hv.DomID]*parentInfo
	// secondStage records the virtual duration of the second stage per
	// child, so experiment drivers can compose total clone latency.
	secondStage map[hv.DomID]vclock.Duration
	served      int
	pinNext     int // next physical core for PinCloneVCPUs
	// pinReserved pre-assigns pin bases per child in notification order,
	// so parallel batch serving pins the same cores a sequential sweep
	// would have.
	pinReserved map[hv.DomID]int
	met         clonedMetrics
}

// New creates the daemon and enables cloning globally (xencloned is
// responsible for that, §5.1).
func New(hyp *hv.Hypervisor, store *xenstore.Store, xl *toolstack.XL, net toolstack.Switch, opts Options) *Daemon {
	reg := hyp.Metrics()
	d := &Daemon{
		HV:          hyp,
		Store:       store,
		XL:          xl,
		Backends:    xl.Backends,
		Net:         net,
		Opts:        opts,
		cache:       make(map[hv.DomID]*parentInfo),
		secondStage: make(map[hv.DomID]vclock.Duration),
		met: clonedMetrics{
			failures:      reg.Counter("cloned.failures"),
			retries:       reg.Counter("cloned.retries"),
			rollbacks:     reg.Counter("cloned.rollbacks"),
			aborts:        reg.Counter("cloned.aborts"),
			secondStageUS: reg.Histogram("cloned.second_stage_us"),
		},
	}
	hyp.SetCloningEnabled(true)
	return d
}

// Served reports how many clone notifications the daemon has processed.
func (d *Daemon) Served() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.served
}

// FailureStats reports the daemon's failure/retry/rollback counters, read
// from the shared metrics registry.
func (d *Daemon) FailureStats() FailureStats {
	return FailureStats{
		Failures:  int(d.met.failures.Value()),
		Retries:   int(d.met.retries.Value()),
		Rollbacks: int(d.met.rollbacks.Value()),
		Aborts:    int(d.met.aborts.Value()),
	}
}

// SecondStageDuration reports the second-stage virtual time spent for a
// child.
func (d *Daemon) SecondStageDuration(child hv.DomID) (vclock.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.secondStage[child]
	return t, ok
}

// InvalidateCache drops the cached parent info (tests and teardown).
func (d *Daemon) InvalidateCache(parent hv.DomID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.cache, parent)
}

// Serve drains the notification ring and runs the second stage for every
// pending clone. ctx carries the meter the round charges onto (a throwaway
// one when absent), the trace its second-stage spans land in, and the
// fault scope of the round. It returns the number of clones completed,
// which is accurate even when some notifications failed: clones are
// isolated from each other, so one failed child is rolled back and aborted
// while the rest of the batch completes normally. The returned error joins
// the per-child failures. Callers that want the asynchronous flavour run
// it from a VIRQ_CLONED handler.
//
// Children of different parents are independent and are served on a
// bounded worker pool; children of the same parent keep their notification
// order, which the failure protocol (nth-child fault semantics) and the
// parent-info cache warm-up rely on. A batch from a single parent — every
// paper experiment — is therefore served exactly like the sequential
// daemon, on the caller's context directly; multi-parent batches serve
// each group on a detached context whose meter and sub-trace merge back in
// group order.
func (d *Daemon) Serve(ctx obs.OpCtx) (int, error) {
	ctx = ctx.EnsureMeter(nil)
	meter := ctx.Meter()
	notes := d.HV.PopNotifications()
	if len(notes) == 0 {
		return 0, nil
	}
	if d.Opts.PinCloneVCPUs {
		d.reservePins(notes)
	}

	// Group by parent, preserving arrival order within and across groups.
	type group struct {
		notes []hv.CloneNotification
		idx   []int // original positions, for stable error ordering
	}
	var order []hv.DomID
	groups := make(map[hv.DomID]*group)
	for i, n := range notes {
		g := groups[n.Parent]
		if g == nil {
			g = &group{}
			groups[n.Parent] = g
			order = append(order, n.Parent)
		}
		g.notes = append(g.notes, n)
		g.idx = append(g.idx, i)
	}

	errSlots := make([]error, len(notes))
	serveGroup := func(g *group, gctx obs.OpCtx) int {
		served := 0
		for k, n := range g.notes {
			if err := d.serveOneIsolated(n, gctx); err != nil {
				errSlots[g.idx[k]] = fmt.Errorf("cloned: second stage for %d: %w", n.Child, err)
				continue
			}
			served++
		}
		return served
	}

	served := 0
	if len(order) == 1 {
		served = serveGroup(groups[order[0]], ctx)
		return served, errors.Join(errSlots...)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(order) {
		workers = len(order)
	}
	// Each group serves on a detached context (private meter, private
	// sub-trace); both merge back in group order below, so virtual time and
	// span order never depend on worker scheduling.
	meters := make([]*vclock.Meter, len(order))
	subs := make([]*obs.Trace, len(order))
	counts := make([]int, len(order))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range work {
				gctx, sub := ctx.Detach()
				counts[gi] = serveGroup(groups[order[gi]], gctx)
				meters[gi], subs[gi] = gctx.Meter(), sub
			}
		}()
	}
	for gi := range order {
		work <- gi
	}
	close(work)
	wg.Wait()
	trace := ctx.Trace()
	for gi := range order {
		offset := meter.Elapsed()
		meter.Add(meters[gi].Elapsed())
		trace.Absorb(subs[gi], ctx.SpanID(), offset)
		served += counts[gi]
	}
	return served, errors.Join(errSlots...)
}

// CloneRound drives one multi-parent scheduling round end to end: the
// batched first stage (hv.CloneBatch) admits every request, a single Serve
// drains the notification ring for all the round's children at once — its
// per-parent worker pool is exactly the "Serve feeding from multi-parent
// rounds" shape — and the round completes when every admitted parent's
// Done channel closes (all parents resumed).
//
// The returned slice is positionally parallel to reqs; each entry carries
// that request's children, stats and first-stage error. served counts the
// second stages completed across the whole round, and the error joins the
// second-stage failures (first-stage failures stay in their entry's Err).
// ctx's meter receives the Serve charges; each request's first stage
// charges the request's own Ctx, so batching never leaks charges between
// parents.
func (d *Daemon) CloneRound(ctx obs.OpCtx, reqs []hv.CloneRequest) ([]hv.CloneResult, int, error) {
	results := d.HV.CloneBatch(ctx, reqs)
	served, err := d.Serve(ctx)
	for _, r := range results {
		if r.Done != nil {
			<-r.Done
		}
	}
	return results, served, err
}

// reservePins pre-assigns pin bases for every child in notification order,
// so the round-robin core assignment does not depend on which worker
// serves which parent group first.
func (d *Daemon) reservePins(notes []hv.CloneNotification) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pinReserved == nil {
		d.pinReserved = make(map[hv.DomID]int)
	}
	for _, n := range notes {
		if _, ok := d.pinReserved[n.Child]; ok {
			continue
		}
		dom, err := d.HV.Domain(n.Child)
		if err != nil {
			continue
		}
		d.pinReserved[n.Child] = d.pinNext
		d.pinNext += dom.VCPUCount()
	}
}

// serveOneIsolated runs the second stage for one notification with the
// daemon's failure protocol around it: on any failure the partial clone is
// rolled back; transient faults are retried with exponential backoff up to
// the retry budget; a fatal fault (or an exhausted budget) aborts the
// clone through CLONEOP so the parent resumes with the child reported
// failed.
func (d *Daemon) serveOneIsolated(n hv.CloneNotification, ctx obs.OpCtx) error {
	defer func() {
		// The child reached a terminal state either way; its pin
		// reservation (if any) is spent.
		d.mu.Lock()
		delete(d.pinReserved, n.Child)
		d.mu.Unlock()
	}()
	meter := ctx.Meter()
	budget := d.Opts.retryBudget()
	for attempt := 0; ; attempt++ {
		err := d.serveOne(n, ctx)
		if err == nil {
			return nil
		}
		d.rollback(n, ctx)
		d.met.rollbacks.Inc()
		if fault.IsTransient(err) && attempt < budget {
			d.met.retries.Inc()
			// Exponential backoff: base, 2x base, 4x base, ...
			meter.Charge(meter.Costs().CloneRetryBase, 1<<attempt)
			continue
		}
		// Fatal (or retries exhausted): abort the half-clone so the
		// parent unblocks and every hypervisor-side resource of the
		// child is released.
		d.met.failures.Inc()
		d.met.aborts.Inc()
		if aerr := d.HV.CloneAbort(ctx, n.Child); aerr != nil {
			return errors.Join(err, fmt.Errorf("cloned: abort of %d: %w", n.Child, aerr))
		}
		return err
	}
}

// serveOne runs the full second stage for one clone notification.
func (d *Daemon) serveOne(n hv.CloneNotification, ctx obs.OpCtx) error {
	meter := ctx.Meter()
	ctx, span := ctx.StartSpan("second-stage")
	defer span.End()
	start := meter.Elapsed()
	meter.Charge(meter.Costs().XenclonedWake, 1)

	info, err := d.parentInfo(n.Parent, meter)
	if err != nil {
		return err
	}

	// Step 2.1: introduce the child to xenstored (augmented with the
	// parent ID) and write its base entries.
	if err := func() error {
		_, ispan := ctx.StartSpan("xenstore-intro")
		defer ispan.End()
		meter.Charge(meter.Costs().Introduce, 1)
		base := fmt.Sprintf("/local/domain/%d", n.Child)
		childName := fmt.Sprintf("%s-clone-%d", info.name, n.Child)
		writes := [...]struct{ key, val string }{
			{base + "/name", childName},
			{base + "/domid", strconv.FormatUint(uint64(n.Child), 10)},
			{base + "/parent", strconv.FormatUint(uint64(n.Parent), 10)},
		}
		for _, w := range writes {
			if err := d.Store.Write(w.key, w.val, meter); err != nil {
				return err
			}
		}
		_, err := d.XL.AdoptClone(n.Parent, n.Child)
		return err
	}(); err != nil {
		return err
	}

	if d.Opts.PinCloneVCPUs {
		_, fspan := ctx.StartSpan("finalize")
		err := d.pinVCPUs(n.Child)
		fspan.End()
		if err != nil {
			return err
		}
	}

	if !d.Opts.SkipDevices {
		_, dspan := ctx.StartSpan("device-clone")
		err := d.cloneDevices(n, info, meter)
		dspan.End()
		if err != nil {
			return err
		}
	}

	// Step 2.4: report completion; the hypervisor resumes the parent,
	// and the child unless configured to stay paused. CloneCompletion
	// records its own span on the passed context.
	if err := d.HV.CloneCompletion(ctx, n.Child, !d.Opts.LeaveChildrenPaused); err != nil {
		return err
	}

	dur := meter.Elapsed() - start
	d.mu.Lock()
	d.secondStage[n.Child] = dur
	d.served++
	d.mu.Unlock()
	d.met.secondStageUS.Observe(int64(dur / 1000))
	return nil
}

// rollback undoes whatever part of the second stage completed for a failed
// child, in reverse creation order: device backends first (vbd, 9pfs, vif
// with switch detach, console), then the toolstack record, then the
// child's whole Xenstore subtree. Every step tolerates the state it undoes
// being absent, so rollback is safe no matter where the second stage
// failed, and running it twice is harmless. The hypervisor-side teardown
// (domain, COW references, clone budget) is NOT done here — that is
// CloneAbort's job, invoked only when the failure is terminal.
func (d *Daemon) rollback(n hv.CloneNotification, ctx obs.OpCtx) {
	meter := ctx.Meter()
	_, span := ctx.StartSpan("rollback")
	defer span.End()
	c := uint32(n.Child)
	// The parent inventory bounds what could have been cloned. If it is
	// unreadable the failure happened before any device work, so the
	// device sweep is moot.
	info, infoErr := d.parentInfo(n.Parent, meter)
	if infoErr == nil {
		if d.Backends.Vbd != nil {
			for _, idx := range info.vbds {
				d.Backends.Vbd.Remove(c, idx)
			}
		}
		if d.Backends.NineP != nil {
			for range info.ninePs {
				d.Backends.NineP.Remove(c)
			}
		}
		for _, idx := range info.vifs {
			if v, err := d.Backends.Net.Vif(c, idx); err == nil {
				if d.Net != nil {
					d.Net.Detach(v)
				}
				d.Backends.Net.RemoveVif(c, idx, meter)
				// Consume the udev remove event the backend emitted.
				d.Backends.Udev.TryRecv()
			}
		}
		for range info.consoles {
			d.Backends.Console.Remove(c)
		}
	}
	d.XL.ReleaseClone(n.Child)
	// Deleting the child subtree erases its base entries and any
	// partially-cloned frontend device entries; the backend halves live
	// under Dom0's subtree and must be removed per device kind. A child
	// that never got that far yields NotFound, which is the desired
	// state anyway.
	_ = d.Store.Remove(fmt.Sprintf("/local/domain/%d", n.Child), meter)
	for _, kind := range []string{"vbd", "9pfs", "vif", "console"} {
		_ = d.Store.Remove(devices.BackendDir(c, kind), meter)
	}
}

// pinVCPUs assigns the clone's vCPUs to physical cores round robin.
func (d *Daemon) pinVCPUs(child hv.DomID) error {
	cores := d.Opts.HostCores
	if cores <= 0 {
		cores = 4
	}
	dom, err := d.HV.Domain(child)
	if err != nil {
		return err
	}
	d.mu.Lock()
	base, reserved := d.pinReserved[child]
	if !reserved {
		base = d.pinNext
		d.pinNext += dom.VCPUCount()
	}
	d.mu.Unlock()
	for i := 0; i < dom.VCPUCount(); i++ {
		v, err := dom.VCPU(i)
		if err != nil {
			return err
		}
		v.Affinity = (base + i) % cores
	}
	return nil
}

// parentInfo reads (or recalls) the parent's device inventory. The first
// clone pays the Xenstore reads; later clones hit the cache (§6.2).
func (d *Daemon) parentInfo(parent hv.DomID, meter *vclock.Meter) (*parentInfo, error) {
	if !d.Opts.DisableCache {
		d.mu.Lock()
		if info, ok := d.cache[parent]; ok {
			d.mu.Unlock()
			return info, nil
		}
		d.mu.Unlock()
	}
	name, err := d.Store.Read(fmt.Sprintf("/local/domain/%d/name", parent), meter)
	if err != nil {
		return nil, err
	}
	info := &parentInfo{name: name}
	for _, kind := range []string{"console", "vif", "9pfs", "vbd"} {
		dir := devices.FrontendDir(uint32(parent), kind)
		if !d.Store.Exists(dir, meter) {
			continue
		}
		names, err := d.Store.Directory(dir, meter)
		if err != nil {
			return nil, err
		}
		for _, s := range names {
			idx, err := strconv.Atoi(s)
			if err != nil {
				continue
			}
			switch kind {
			case "console":
				info.consoles = append(info.consoles, idx)
			case "vif":
				info.vifs = append(info.vifs, idx)
			case "9pfs":
				info.ninePs = append(info.ninePs, idx)
			case "vbd":
				info.vbds = append(info.vbds, idx)
			}
		}
	}
	if !d.Opts.DisableCache {
		d.mu.Lock()
		d.cache[parent] = info
		d.mu.Unlock()
	}
	return info, nil
}

// cloneStoreDir clones one device directory with xs_clone or, under the
// ablation, a deep copy: xencloned reads (and caches) the parent subtree,
// then sends one Write request per node — exactly how the entries would be
// created on regular instantiation (§6.1).
func (d *Daemon) cloneStoreDir(n hv.CloneNotification, op xenstore.CloneOp, src, dst string, meter *vclock.Meter) error {
	if !d.Opts.UseDeepCopy {
		return d.Store.Clone(uint32(n.Parent), uint32(n.Child), op, src, dst, meter)
	}
	pairs, err := d.snapshot(n.Parent, src, meter)
	if err != nil {
		return err
	}
	for _, pr := range pairs {
		rel, val := xenstore.RewriteForClone(uint32(n.Parent), uint32(n.Child), op, pr.Path, pr.Value)
		path := dst
		if rel != "" {
			path = dst + "/" + rel
		}
		if err := d.Store.Write(path, val, meter); err != nil {
			return err
		}
	}
	return nil
}

// snapshot returns the cached subtree of a parent device directory,
// reading it from the store on the first use.
func (d *Daemon) snapshot(parent hv.DomID, src string, meter *vclock.Meter) ([]xenstore.Pair, error) {
	if !d.Opts.DisableCache {
		d.mu.Lock()
		if info, ok := d.cache[parent]; ok && info.snapshots != nil {
			if pairs, ok := info.snapshots[src]; ok {
				d.mu.Unlock()
				return pairs, nil
			}
		}
		d.mu.Unlock()
	}
	pairs, err := d.Store.Snapshot(src, meter)
	if err != nil {
		return nil, err
	}
	if !d.Opts.DisableCache {
		d.mu.Lock()
		if info, ok := d.cache[parent]; ok {
			if info.snapshots == nil {
				info.snapshots = make(map[string][]xenstore.Pair)
			}
			info.snapshots[src] = pairs
		}
		d.mu.Unlock()
	}
	return pairs, nil
}

// cloneDevices runs steps 2.1-2.3 for every parent device.
func (d *Daemon) cloneDevices(n hv.CloneNotification, info *parentInfo, meter *vclock.Meter) error {
	p, c := uint32(n.Parent), uint32(n.Child)

	// Console: Xenstore entries only; the Qemu console process is
	// notified by the store write and creates the state internally.
	for range info.consoles {
		if err := d.cloneStoreDir(n, xenstore.CloneDevConsole,
			devices.FrontendDir(p, "console"), devices.FrontendDir(c, "console"), meter); err != nil {
			return err
		}
		if err := d.cloneStoreDir(n, xenstore.CloneDevConsole,
			devices.BackendDir(p, "console"), devices.BackendDir(c, "console"), meter); err != nil {
			return err
		}
		if err := d.Backends.Console.Clone(p, c, meter); err != nil {
			return err
		}
	}

	// Network: store entries, backend clone device (pre-connected, ring
	// copies), then the udev event and the userspace switch attachment.
	if !d.Opts.SkipNetworkDevices {
		for _, idx := range info.vifs {
			if err := d.cloneStoreDir(n, xenstore.CloneDevVif,
				devices.FrontendDir(p, "vif"), devices.FrontendDir(c, "vif"), meter); err != nil {
				return err
			}
			if err := d.cloneStoreDir(n, xenstore.CloneDevVif,
				devices.BackendDir(p, "vif"), devices.BackendDir(c, "vif"), meter); err != nil {
				return err
			}
			vif, err := d.Backends.Net.CloneVif(p, c, idx, meter)
			if err != nil {
				return err
			}
			// Step 2.3: handle the udev event the backend emitted.
			if ev, ok := d.Backends.Udev.TryRecv(); ok && ev.Action == devices.UdevAdd {
				if d.Net != nil {
					d.Net.Attach(vif, meter)
				}
			}
		}
	}

	// 9pfs: store entries plus the QMP cloning request to the parent's
	// backend process.
	for range info.ninePs {
		if err := d.cloneStoreDir(n, xenstore.CloneDev9pfs,
			devices.FrontendDir(p, "9pfs"), devices.FrontendDir(c, "9pfs"), meter); err != nil {
			return err
		}
		if err := d.cloneStoreDir(n, xenstore.CloneDev9pfs,
			devices.BackendDir(p, "9pfs"), devices.BackendDir(c, "9pfs"), meter); err != nil {
			return err
		}
		if err := d.Backends.NineP.Clone(p, c, meter); err != nil {
			return err
		}
	}

	// Block devices (§5.3 extension): store entries plus the backend's
	// shared-base + copied-overlay clone.
	for _, idx := range info.vbds {
		if err := d.cloneStoreDir(n, xenstore.CloneDevVbd,
			devices.FrontendDir(p, "vbd"), devices.FrontendDir(c, "vbd"), meter); err != nil {
			return err
		}
		if err := d.cloneStoreDir(n, xenstore.CloneDevVbd,
			devices.BackendDir(p, "vbd"), devices.BackendDir(c, "vbd"), meter); err != nil {
			return err
		}
		if _, err := d.Backends.Vbd.Clone(p, c, idx, meter); err != nil {
			return err
		}
	}
	return nil
}
