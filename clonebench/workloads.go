package main

import (
	"errors"
	"fmt"
	"math/rand"

	"nephele/internal/cluster"
	"nephele/internal/core"
	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// opRecord is what one operation produced, as far as it can be compared.
// Every round replays the run's inputs on a freshly built system, so each
// round's records must equal the first round's, and a traced round's must
// equal the untraced reference.
type opRecord struct {
	children int
	childIDs uint64 // idHash of the children, in creation order
	// readyNS is CloneResult.Total, the virtual time-to-ready.
	readyNS int64

	shared, private int // hv: first-stage shared pages and private copies
	sharedFrames    int // mem: pool shared-frame count right after the clone
	cowFaults       int // mem: COW faults taken by parent and child writes

	storeReqs  int // xenstore requests served during the clone
	storeLeft  int // xenstore nodes the operation left behind
	storeNodes int // xenstore nodes after teardown

	retries, failures int // cloned: second-stage retries and failures

	hits, misses, evictions int // toolstack image store
	residentPages           int
	wirePages, dedupPages   int // netsim: pages sent and skipped by dedup

	freeBytes uint64 // host free memory after teardown (the peer's includes the cache)
}

// round is one freshly built system under test.
type round interface {
	// op runs operation i of the round.
	op(i int, l *layers) (opRecord, error)
}

// workload is one input mix. prepare derives the run's inputs from the
// seed once; setup builds a fresh round over them.
type workload struct {
	name string
	// tracedReady reports whether the traced decomposition reproduces the
	// entry point's virtual time-to-ready exactly. It does not for a
	// placed clone: the transfer's virtual charge is private to cluster.
	tracedReady bool
	prepare     func(seed int64) (ops int, setup func() (round, error))
}

var workloads = []workload{
	{
		name:        "fork-fanout",
		tracedReady: true,
		prepare:     prepareFanout,
	},
	{
		name:        "fork-touch",
		tracedReady: true,
		prepare:     prepareTouch,
	},
	{
		name:        "remote-mutate",
		tracedReady: false,
		prepare:     prepareRemote,
	},
}

// errSteady reports host memory that did not return to its steady-state
// value after teardown.
var errSteady = errors.New("free memory after teardown differs from the steady state")

// steady checks that free memory after teardown is the same after every
// operation of a round as after the first.
type steady struct {
	ref uint64
	set bool
}

func (s *steady) check(free uint64) error {
	if !s.set {
		s.ref, s.set = free, true
		return nil
	}
	if free != s.ref {
		return fmt.Errorf("%w: %d bytes, steady state %d", errSteady, free, s.ref)
	}
	return nil
}

// bootWritten boots a guest on p and stamps the listed pages (every
// regular page when pfns is nil), returning the guest and its model.
func bootWritten(p *core.Platform, cfg toolstack.DomainConfig, w *writer, pfns []int) (core.DomID, contents, error) {
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("boot %s: %w", cfg.Name, err)
	}
	sp, err := space(p, rec.ID)
	if err != nil {
		return 0, nil, err
	}
	model := make(contents, regularPages(cfg))
	if pfns == nil {
		pfns = make([]int, len(model))
		for i := range pfns {
			pfns[i] = i
		}
	}
	return rec.ID, model, w.writeAll(sp, model, pfns, nil)
}

func space(p *core.Platform, id core.DomID) (*mem.Space, error) {
	d, err := p.HV.Domain(id)
	if err != nil {
		return nil, err
	}
	return d.Space(), nil
}

// fork clones parent n times on p, the way the parent forks itself, and
// fills rec with what the clone produced. Untraced it is one call of the
// public entry point, core.Platform.CloneOp. Traced or counted it drives
// the calls CloneOp makes, in the same order: hv.Hypervisor.Clone (stage
// 1), cloned.Daemon.Serve (stage 2) and the wait on the completion
// channel. The children that completed are returned even with an error.
func fork(p *core.Platform, parent core.DomID, n int, meter *vclock.Meter, l *layers, rec *opRecord) ([]core.DomID, error) {
	ctx := obs.Ctx(meter)
	var (
		kids   []core.DomID
		failed int
		stats  *hv.CloneOpStats
		err    error
	)
	reqs := p.Store.Stats().Requests
	fails := p.Cloned.FailureStats()
	start := meter.Elapsed()
	if l.mode.entry() {
		var res []*core.CloneResult
		res, err = p.CloneOp(ctx, core.CloneSpec{Caller: parent, Parent: parent, Count: n})
		if len(res) == 1 {
			kids, failed, stats = res[0].Children, len(res[0].Failed), res[0].Stats
			rec.readyNS = int64(res[0].Total)
		}
	} else {
		var r hv.CloneResult
		l.call("hv.clone", func() {
			r = p.HV.Clone(hv.CloneRequest{Caller: parent, Target: parent, N: n, CopyRing: true, Ctx: ctx})
		})
		if r.Err != nil {
			return nil, fmt.Errorf("clone of %d: %w", parent, r.Err)
		}
		l.call("cloned.serve", func() { _, err = p.Cloned.Serve(ctx) })
		l.call("hv.completion", func() { <-r.Done })
		rec.readyNS = int64(meter.Elapsed() - start)
		stats = r.Stats
		for _, k := range r.Children {
			if out, ok := p.HV.CloneOutcome(k); ok && out == hv.OutcomeAborted {
				failed++
				continue
			}
			kids = append(kids, k)
		}
	}
	l.check(func() {
		rec.children, rec.childIDs = len(kids), idHash(kids)
		if stats != nil {
			rec.shared, rec.private = stats.Memory.SharedPages, stats.Memory.PrivateCopies
		}
		rec.sharedFrames = p.HV.Memory.SharedFrames()
		rec.storeReqs = p.Store.Stats().Requests - reqs
		now := p.Cloned.FailureStats()
		rec.retries, rec.failures = now.Retries-fails.Retries, now.Failures-fails.Failures
	})
	if err == nil && (failed > 0 || len(kids) != n) {
		err = fmt.Errorf("clone of %d: %d of %d children ready", parent, len(kids), n)
	}
	return kids, err
}

// destroy tears children down through the toolstack.
func destroy(x *toolstack.XL, kids []core.DomID, meter *vclock.Meter, l *layers) error {
	var errs []error
	for _, k := range kids {
		l.call("toolstack.destroy", func() {
			if err := x.Destroy(k, meter); err != nil {
				errs = append(errs, fmt.Errorf("destroy %d: %w", k, err))
			}
		})
	}
	return errors.Join(errs...)
}

// fork-fanout: four 4 MB parents, half their pages written at setup, take
// turns; one operation clones the next parent 4 times (eager) and destroys
// the children.
//
// Known defect, reported and not hidden: XL.Destroy leaves the children's
// /local/domain/0/backend/{vif,console}/<domid> Xenstore nodes behind (18
// per child, xenstore.nodes_per_teardown). Every request is charged per
// store node, so time-to-ready rises with every operation of a round, and
// the virtual metrics repeat only because a round always runs the same
// number of operations.
const fanoutParents = 4

type fanout struct {
	p       *core.Platform
	w       writer
	parents []core.DomID
	models  []contents
	free    steady
}

func prepareFanout(seed int64) (int, func() (round, error)) {
	rng := rand.New(rand.NewSource(seed))
	n := regularPages(guestConfig("", 4, 0))
	written := make([][]int, fanoutParents)
	for i := range written {
		written[i] = pick(rng, n, n/2)
	}
	ops := 240 + rng.Intn(8)
	return ops, func() (round, error) {
		f := &fanout{p: core.NewPlatform(core.Options{})}
		for i := 0; i < fanoutParents; i++ {
			cfg := guestConfig(fmt.Sprintf("fanout%d", i), 4, byte(2+i))
			id, model, err := bootWritten(f.p, cfg, &f.w, written[i])
			if err != nil {
				return nil, err
			}
			f.parents = append(f.parents, id)
			f.models = append(f.models, model)
		}
		return f, nil
	}
}

func (f *fanout) op(i int, l *layers) (opRecord, error) {
	var rec opRecord
	par := i % fanoutParents
	meter := f.p.NewMeter()
	nodes := f.p.Store.NodeCount()
	var errs []error
	l.begin(meter)
	kids, err := fork(f.p, f.parents[par], 4, meter, l, &rec)
	errs = append(errs, err)
	l.check(func() {
		for _, k := range kids {
			sp, err := space(f.p, k)
			if err == nil {
				err = checkStamps(sp, f.models[par], nil)
			}
			errs = append(errs, err)
		}
	})
	errs = append(errs, destroy(f.p.XL, kids, meter, l))
	l.end()
	rec.storeNodes = f.p.Store.NodeCount()
	rec.storeLeft = rec.storeNodes - nodes
	rec.freeBytes = f.p.HV.FreeBytes()
	errs = append(errs, f.free.check(rec.freeBytes))
	return rec, errors.Join(errs...)
}

// fork-touch: one 64 MB parent, fully written at setup. One operation:
// the parent rewrites 1% of its pages, forks once, the child writes 10% of
// its pages, and the child is destroyed.
type touch struct {
	p      *core.Platform
	w      writer
	parent core.DomID
	psp    *mem.Space
	model  contents
	cmodel contents // the child's model, reused across operations
	free   steady

	parentWrites, childWrites [][]int // per operation
}

func prepareTouch(seed int64) (int, func() (round, error)) {
	rng := rand.New(rand.NewSource(seed))
	n := regularPages(guestConfig("", 64, 0))
	ops := 96 + rng.Intn(8)
	parentWrites, childWrites := make([][]int, ops), make([][]int, ops)
	for i := 0; i < ops; i++ {
		parentWrites[i], childWrites[i] = pick(rng, n, n/100), pick(rng, n, n/10)
	}
	return ops, func() (round, error) {
		t := &touch{p: core.NewPlatform(core.Options{}), parentWrites: parentWrites, childWrites: childWrites}
		var err error
		t.parent, t.model, err = bootWritten(t.p, guestConfig("touch", 64, 2), &t.w, nil)
		if err != nil {
			return nil, err
		}
		if t.psp, err = space(t.p, t.parent); err != nil {
			return nil, err
		}
		return t, nil
	}
}

func (t *touch) op(i int, l *layers) (opRecord, error) {
	var rec opRecord
	meter := t.p.NewMeter()
	nodes := t.p.Store.NodeCount()
	faults := t.psp.Faults()
	var errs []error
	l.begin(meter)
	l.call("mem.write", func() { errs = append(errs, t.w.writeAll(t.psp, t.model, t.parentWrites[i], meter)) })
	kids, err := fork(t.p, t.parent, 1, meter, l, &rec)
	errs = append(errs, err)
	if len(kids) == 1 {
		var csp *mem.Space
		l.check(func() {
			if csp, err = space(t.p, kids[0]); err != nil {
				errs = append(errs, err)
				return
			}
			// The child must read exactly what the parent held at the fork.
			errs = append(errs, checkStamps(csp, t.model, nil))
			t.cmodel = append(t.cmodel[:0], t.model...)
		})
		if csp != nil {
			writes := t.childWrites[i]
			l.call("mem.write", func() { errs = append(errs, t.w.writeAll(csp, t.cmodel, writes, meter)) })
			l.check(func() {
				// The child's writes land in the child and never show in
				// the parent.
				errs = append(errs, checkStamps(csp, t.cmodel, writes), checkStamps(t.psp, t.model, writes))
				rec.cowFaults = t.psp.Faults() - faults + csp.Faults()
			})
		}
	}
	errs = append(errs, destroy(t.p.XL, kids, meter, l))
	l.end()
	rec.storeNodes = t.p.Store.NodeCount()
	rec.storeLeft = rec.storeNodes - nodes
	rec.freeBytes = t.p.HV.FreeBytes()
	errs = append(errs, t.free.check(rec.freeBytes))
	return rec, errors.Join(errs...)
}

// remote-mutate: a 2-host cluster, LinkWidth 2, each host's snapshot
// cache bounded to 64 MB. One 16 MB parent on host 0 is fully written at
// setup. One operation: the parent rewrites 1% of its pages, then a placed
// CloneOp sends two children to host 1 (one cold restore that inserts into
// the cache, one warm adopt), then both children are destroyed.
//
// Known gap, reported and not hidden: a fully written image is a single
// data run, so one changed page ships the whole image again and
// netsim.xfer.dedup_ratio is 0.
//
// Known defect, reported and not hidden: the virtual time of a restore
// depends on Go's map iteration order. XL.Create writes its Xenstore keys
// (toolstack introduce, devices.WriteDevicePair) by ranging over a map,
// and every request is charged per store node, so the order in which the
// directories appear moves time-to-ready by a few hundred ns between
// identical replays (virt.replay_mismatch_ratio).
type remote struct {
	c        *cluster.Cluster
	h0, h1   *cluster.Host
	link     *netsim.Link
	w        writer
	parent   core.DomID
	psp      *mem.Space
	model    contents
	writes   [][]int
	names    int
	free     steady
	peerFree steady
}

const (
	remoteChildren = 2
	remoteCacheMB  = 64
)

// toPeer places every child on host 1.
type toPeer struct{}

func (toPeer) Name() string { return "peer" }

func (toPeer) Place(n, _ int, _ []core.HostStats) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func prepareRemote(seed int64) (int, func() (round, error)) {
	rng := rand.New(rand.NewSource(seed))
	n := regularPages(guestConfig("", 16, 0))
	ops := 20 + rng.Intn(4)
	writes := make([][]int, ops)
	for i := range writes {
		writes[i] = pick(rng, n, n/100)
	}
	return ops, func() (round, error) {
		c := cluster.New(cluster.Options{Hosts: 2, LinkWidth: 2, CacheMB: remoteCacheMB})
		r := &remote{c: c, h0: c.Host(0), h1: c.Host(1), writes: writes}
		var err error
		if r.link, err = c.Fabric().Link(0, 1); err != nil {
			return nil, err
		}
		r.parent, r.model, err = bootWritten(r.h0.P, guestConfig("remote", 16, 2), &r.w, nil)
		if err != nil {
			return nil, err
		}
		if r.psp, err = space(r.h0.P, r.parent); err != nil {
			return nil, err
		}
		return r, nil
	}
}

// place clones the parent onto host 1. Untraced it is one placed
// core.Platform.CloneOp. Traced or counted it drives the calls the
// cluster router makes, in the same order: XL.Save, Image.RunInfos, the
// link's Plan and Commit against the receiver's ImageStore.HasChunk, and
// one XL.RestoreCachedOp per child. The router's transfer charge on the
// virtual clock is private to cluster and not reproduced.
func (r *remote) place(meter *vclock.Meter, l *layers, rec *opRecord) ([]core.DomID, error) {
	ctx := obs.Ctx(meter)
	if l.mode.entry() {
		res, err := r.h0.P.CloneOp(ctx, core.CloneSpec{Caller: r.parent, Parent: r.parent,
			Count: remoteChildren, Placement: toPeer{}})
		if len(res) != 1 {
			return nil, errors.Join(fmt.Errorf("placed clone: %d result groups, want 1", len(res)), err)
		}
		rec.readyNS = int64(res[0].Total)
		return res[0].Children, err
	}
	var (
		img   *toolstack.Image
		infos []toolstack.RunInfo
		err   error
	)
	l.call("toolstack.save", func() { img, err = r.h0.P.XL.Save(r.parent, meter) })
	if err != nil {
		return nil, fmt.Errorf("save %d: %w", r.parent, err)
	}
	l.call("toolstack.hash", func() { infos = img.RunInfos() })
	l.call("netsim.xfer", func() {
		// Pageless runs travel as a header; their chunk identity only
		// selects a slave, which carries no pages for them.
		chunks := make([]netsim.Chunk, len(infos))
		for i, ri := range infos {
			if ri.Kind == toolstack.RunData {
				chunks[i] = netsim.Chunk{Hash: ri.Hash, Pages: ri.StoredPages}
			}
		}
		plan := r.link.Plan(chunks, func(ch netsim.Chunk) bool { return r.h1.Store.HasChunk(ch.Hash) })
		r.link.Commit(plan)
	})
	var (
		kids  []core.DomID
		order error
	)
	for k := 0; k < remoteChildren; k++ {
		r.names++
		name := fmt.Sprintf("%s@h1.%d", img.Config.Name, r.names)
		warm := r.h1.Store.Contains(img)
		span := "toolstack.restore_cold"
		if warm {
			span = "toolstack.restore_warm"
		}
		var (
			child  *toolstack.Record
			cached bool
		)
		l.call(span, func() { child, cached, err = r.h1.P.XL.RestoreCachedOp(ctx, r.h1.Store, img, name) })
		if err != nil {
			return kids, fmt.Errorf("restore child %d: %w", k, err)
		}
		// The first child restores cold and inserts; the rest adopt it.
		if cached != warm || cached != (k > 0) {
			order = errors.Join(order, fmt.Errorf("restore child %d: served from cache %v, want %v", k, cached, k > 0))
		}
		kids = append(kids, child.ID)
	}
	return kids, order
}

func (r *remote) op(i int, l *layers) (opRecord, error) {
	var rec opRecord
	meter := r.h0.P.NewMeter()
	store := r.h1.Store
	nodes := r.h1.P.Store.NodeCount()
	st := store.Stats()
	_, sent, deduped := r.link.Stats()
	var errs []error
	l.begin(meter)
	l.call("mem.write", func() { errs = append(errs, r.w.writeAll(r.psp, r.model, r.writes[i], meter)) })
	kids, err := r.place(meter, l, &rec)
	errs = append(errs, err)
	l.check(func() {
		rec.children, rec.childIDs = len(kids), idHash(kids)
		if len(kids) != remoteChildren {
			errs = append(errs, fmt.Errorf("placed clone: %d of %d children ready", len(kids), remoteChildren))
		}
		// Each child must equal the parent's snapshot byte for byte.
		for _, k := range kids {
			sp, err := space(r.h1.P, k)
			if err == nil {
				err = checkPages(sp, r.model)
			}
			errs = append(errs, err)
		}
		now := store.Stats()
		rec.hits, rec.misses = int(now.Hits-st.Hits), int(now.Misses-st.Misses)
		rec.evictions, rec.residentPages = int(now.Evictions-st.Evictions), now.ResidentPages
		if rec.hits != remoteChildren-1 || rec.misses != 1 {
			errs = append(errs, fmt.Errorf("image store: %d hits %d misses, want %d and 1",
				rec.hits, rec.misses, remoteChildren-1))
		}
		_, s, d := r.link.Stats()
		rec.wirePages, rec.dedupPages = int(s-sent), int(d-deduped)
	})
	errs = append(errs, destroy(r.h1.P.XL, kids, meter, l))
	l.end()
	rec.storeNodes = r.h1.P.Store.NodeCount()
	rec.storeLeft = rec.storeNodes - nodes
	rec.freeBytes = r.h0.P.HV.FreeBytes()
	peer := r.h1.P.HV.FreeBytes() + uint64(store.Stats().ResidentPages)*mem.PageSize
	errs = append(errs, r.free.check(rec.freeBytes), r.peerFree.check(peer))
	return rec, errors.Join(errs...)
}
