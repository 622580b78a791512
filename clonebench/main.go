// Command clonebench is the clone-pipeline benchmark: it drives one
// closed-loop workload (one client goroutine) through the public
// core.Platform and cluster API for a fixed time, checks every
// operation's output, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics of a separately traced run (--trace 1), as a
// table and, on the last line of standard output, as one JSON object.
//
// A run is a sequence of rounds. Each round builds a fresh system and
// replays the same seeded operations on it, so the virtual-clock results
// of every round must be identical; a round whose records differ from
// the first round's counts its differing operations as failed.
//
//	go run . --workload fork-fanout --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

func main() {
	name := flag.String("workload", "", "workload to run: fork-fanout, fork-touch or remote-mutate")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	traceOut := flag.String("trace-out", "", "directory to write the traced run's Chrome trace into (none when empty)")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "clonebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(w, *seed, d, *traceOut)
	} else {
		res, err = runEndToEnd(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "clonebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "clonebench: %v\n", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	workload          string
	attempted, failed int
	errs              []string // the first failures, for the report
	notes             []string // other findings, for the report
	metrics           []metric
	table             string // extra report text printed before the metrics

	// Virtual time-to-ready of replayed operations that differed from the
	// reference round's. This is a determinism finding about the program's
	// virtual clock, reported on its own; the operation's outputs are
	// still checked and counted as usual.
	replayed, virtDiffs int
}

// replay compares one replayed operation's virtual time-to-ready with the
// reference round's.
func (r *result) replay(op int, got, want int64) {
	r.replayed++
	if got == want {
		return
	}
	r.virtDiffs++
	if r.virtDiffs == 1 {
		r.notes = append(r.notes, fmt.Sprintf("op %d: virtual time-to-ready %d ns, reference round %d ns", op, got, want))
	}
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// maxReported bounds how many failure messages a run keeps.
const maxReported = 5

func (r *result) fail(op string, err error) {
	r.failed++
	if len(r.errs) < maxReported {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", op, err))
	}
}

// print writes the human-readable report followed by the JSON result as
// the last line.
func (r *result) print(out io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: %d operations, %d failed\n", r.workload, r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Fprintf(&b, "  failure: %s\n", e)
	}
	fmt.Fprintf(&b, "  virtual time-to-ready repeated on %d of %d replayed operations\n", r.replayed-r.virtDiffs, r.replayed)
	for _, n := range r.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	b.WriteString(r.table)
	for _, m := range r.metrics {
		fmt.Fprintf(&b, "  %-34s %16.6f %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(out, b.String())
	return err
}

// played is one round's measurements.
type played struct {
	rd       round
	l        *layers
	recs     []opRecord
	setup    time.Duration
	walls    []float64 // operation wall time, ms
	wallSum  time.Duration
	allocs   uint64
	children int
}

// play builds a round and runs its ops operations in mode m. Each
// operation that fails, or whose record differs from ref (when ref is
// set), is counted as failed in res.
func play(w workload, setup func() (round, error), ops int, m mode, ref []opRecord, res *result) (*played, error) {
	start := time.Now()
	rd, err := setup()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	p := &played{rd: rd, l: newLayers(m), setup: time.Since(start), recs: make([]opRecord, ops)}
	// Start every round from a collected heap, so the previous round's
	// garbage does not decide when the collector runs during this one.
	runtime.GC()
	for i := 0; i < ops; i++ {
		rec, err := rd.op(i, p.l)
		res.attempted++
		if err == nil && ref != nil {
			want := ref[i]
			if m.entry() || w.tracedReady {
				res.replay(i, rec.readyNS, want.readyNS)
			}
			want.readyNS = rec.readyNS
			if rec != want {
				err = fmt.Errorf("outputs %+v differ from the reference round's %+v", rec, want)
			}
		}
		if err != nil {
			res.fail(fmt.Sprintf("op %d", i), err)
		}
		p.recs[i] = rec
		p.walls = append(p.walls, float64(p.l.opWall)/1e6)
		p.wallSum += p.l.opWall
		p.allocs += p.l.opAllocs
		p.children += rec.children
	}
	return p, nil
}

// runEndToEnd measures the end-to-end metrics. The first round warms the
// process up and is the reference every later round must repeat; it is
// not timed. The rest cycle through three timed rounds and one that counts
// allocations, at least once through, then until the time is up. Each
// wall-clock metric is the median over the timed rounds of that round's
// value, so a stretch of host noise moves a few rounds, not the result.
func runEndToEnd(w workload, seed int64, d time.Duration) (*result, error) {
	ops, setup := w.prepare(seed)
	res := &result{workload: w.name}
	deadline := time.Now().Add(d)
	cycle := []mode{timed, timed, timed, opCounted}
	var (
		ref               []opRecord
		setups            []float64
		rates, p50s, p90s []float64
		allocs            uint64
		counted           int
		last              round
	)
	for r := 0; r <= len(cycle) || time.Now().Before(deadline); r++ {
		m := timed
		if r > 0 {
			m = cycle[(r-1)%len(cycle)]
		}
		last = nil // let the previous round go before building the next
		p, err := play(w, setup, ops, m, ref, res)
		if err != nil {
			return nil, err
		}
		last = p.rd
		setups = append(setups, p.setup.Seconds())
		switch {
		case r == 0:
			ref = p.recs
		case m == opCounted:
			allocs += p.allocs
			counted += ops
		default:
			rates = append(rates, float64(p.children)/p.wallSum.Seconds())
			p50s = append(p50s, percentile(p.walls, 0.5))
			p90s = append(p90s, percentile(p.walls, 0.9))
		}
	}
	ready := make([]float64, len(ref))
	for i, rec := range ref {
		ready[i] = float64(rec.readyNS) / 1e6
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(last)

	res.table = fmt.Sprintf("  %d rounds of %d operations (seed %d): 1 warm-up, %d timed, %d counting allocations\n",
		len(setups), ops, seed, len(rates), counted/ops)
	res.add("clones_per_s", percentile(rates, 0.5), "1/s")
	res.add("op_wall_ms_p50", percentile(p50s, 0.5), "ms")
	res.add("op_wall_ms_p90", percentile(p90s, 0.5), "ms")
	res.add("ready_virt_ms_p50", percentile(ready, 0.5), "ms")
	res.add("ready_virt_ms_p90", percentile(ready, 0.9), "ms")
	res.add("setup_s", percentile(setups, 0.5), "s")
	res.add("live_heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")
	res.add("allocs_per_op", float64(allocs)/float64(counted), "count")
	res.add("ok_ratio", 1-float64(res.failed)/float64(res.attempted), "ratio")
	return res, nil
}

// layerSpans are the spans around layer calls, in report order.
var layerSpans = []string{
	"hv.clone", "hv.completion", "cloned.serve", "mem.write", "toolstack.destroy",
	"toolstack.save", "toolstack.hash", "toolstack.restore_cold", "toolstack.restore_warm", "netsim.xfer",
}

// runTraced measures the per-layer metrics. The first round warms the
// process up and is the reference every later round must repeat,
// operation for operation. The rest cycle through a traced round (spans
// around every layer call), a round counting heap objects per layer call
// and a timed round (for the tracing overhead), at least once through,
// then until the time is up.
func runTraced(w workload, seed int64, d time.Duration, traceOut string) (*result, error) {
	ops, setup := w.prepare(seed)
	res := &result{workload: w.name}
	deadline := time.Now().Add(d)
	cycle := []mode{traced, layerCounted, timed}
	var (
		ref                   []opRecord
		all                   = obs.NewTrace()
		selfNS                = map[string]int64{}
		firstVirt             map[string]vclock.Duration
		allocs                = map[string]uint64{}
		tracedOps, countedOps int
		opWallNS, checkNS     int64
		tWall, uWall          time.Duration
		tKids, uKids          int
		gcs                   uint32
		gcPause               uint64
		virtDiffers           bool
	)
	for r := 0; r <= len(cycle) || time.Now().Before(deadline); r++ {
		m := timed
		if r > 0 {
			m = cycle[(r-1)%len(cycle)]
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := play(w, setup, ops, m, ref, res)
		if err != nil {
			return nil, err
		}
		switch {
		case r == 0:
			ref = p.recs
		case m == timed:
			uWall += p.wallSum
			uKids += p.children
		case m == traced:
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			gcs += after.NumGC - before.NumGC
			gcPause += after.PauseTotalNs - before.PauseTotalNs
			tWall += p.wallSum
			tKids += p.children
			tracedOps += ops
			spans := p.l.trace.Spans()
			self := selfTimes(spans, p.l.startNS)
			virt := map[string]vclock.Duration{}
			for i, s := range spans {
				selfNS[s.Name] += self[i]
				virt[s.Name] += s.DurV()
				switch s.Name {
				case opSpan:
					opWallNS += s.WallNS
				case checkSpan:
					checkNS += s.WallNS
				}
			}
			switch {
			case firstVirt == nil:
				firstVirt = virt
			case !virtDiffers && !maps.Equal(virt, firstVirt):
				virtDiffers = true
				res.notes = append(res.notes, fmt.Sprintf("traced round %d: per-layer virtual time %v, first traced round %v", r, virt, firstVirt))
			}
			all.Absorb(p.l.trace, 0, 0)
		case m == layerCounted:
			for k, v := range p.l.allocs {
				allocs[k] += v
			}
			countedOps += ops
		}
	}

	perOp := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	us := func(ns int64) float64 { return perOp(float64(ns)/1e3, tracedOps) }
	vus := func(span string) float64 { return perOp(float64(firstVirt[span])/1e3, ops) }
	alloc := func(span string) float64 { return perOp(float64(allocs[span]), countedOps) }
	self := func(span string) float64 { return us(selfNS[span]) }
	sum := func(f func(opRecord) int) float64 {
		t := 0
		for _, rec := range ref {
			t += f(rec)
		}
		return float64(t)
	}
	mean := func(f func(opRecord) int) float64 { return perOp(sum(f), ops) }
	kids := sum(func(r opRecord) int { return r.children })
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	hits, misses := sum(func(r opRecord) int { return r.hits }), sum(func(r opRecord) int { return r.misses })
	wire, dedup := sum(func(r opRecord) int { return r.wirePages }), sum(func(r opRecord) int { return r.dedupPages })
	resident := sum(func(r opRecord) int { return r.residentPages }) * mem.PageSize / (1 << 20)

	res.add("hv.clone.self_us", self("hv.clone"), "us")
	res.add("hv.clone.virt_us", vus("hv.clone"), "us")
	res.add("hv.clone.allocs", alloc("hv.clone"), "count")
	res.add("hv.clone.shared_pages", mean(func(r opRecord) int { return r.shared }), "count")
	res.add("hv.clone.private_copies", mean(func(r opRecord) int { return r.private }), "count")
	res.add("hv.completion.wait_us", self("hv.completion"), "us")
	res.add("cloned.serve.self_us", self("cloned.serve"), "us")
	res.add("cloned.serve.virt_us", vus("cloned.serve"), "us")
	res.add("cloned.serve.allocs", alloc("cloned.serve"), "count")
	res.add("cloned.retries", mean(func(r opRecord) int { return r.retries }), "count")
	res.add("cloned.failures", mean(func(r opRecord) int { return r.failures }), "count")
	res.add("xenstore.requests_per_clone", perOp(sum(func(r opRecord) int { return r.storeReqs }), int(kids)), "count")
	res.add("xenstore.nodes_per_teardown", perOp(sum(func(r opRecord) int { return r.storeLeft }), int(kids)), "count")
	res.add("xenstore.nodes_end", float64(ref[len(ref)-1].storeNodes), "count")
	res.add("mem.write.self_us", self("mem.write"), "us")
	res.add("mem.write.virt_us", vus("mem.write"), "us")
	res.add("mem.write.allocs", alloc("mem.write"), "count")
	res.add("mem.cow_faults", mean(func(r opRecord) int { return r.cowFaults }), "count")
	res.add("mem.shared_frames", mean(func(r opRecord) int { return r.sharedFrames }), "count")
	res.add("toolstack.destroy.self_us", self("toolstack.destroy"), "us")
	res.add("toolstack.destroy.allocs", alloc("toolstack.destroy"), "count")
	res.add("toolstack.save.self_us", self("toolstack.save"), "us")
	res.add("toolstack.save.virt_us", vus("toolstack.save"), "us")
	res.add("toolstack.save.allocs", alloc("toolstack.save"), "count")
	res.add("toolstack.hash.self_us", self("toolstack.hash"), "us")
	res.add("toolstack.restore_cold.self_us", self("toolstack.restore_cold"), "us")
	res.add("toolstack.restore_cold.virt_us", vus("toolstack.restore_cold"), "us")
	res.add("toolstack.restore_warm.self_us", self("toolstack.restore_warm"), "us")
	res.add("toolstack.restore_warm.virt_us", vus("toolstack.restore_warm"), "us")
	res.add("toolstack.imagestore.hit_ratio", ratio(hits, misses), "ratio")
	res.add("toolstack.imagestore.evictions", mean(func(r opRecord) int { return r.evictions }), "count")
	res.add("toolstack.imagestore.resident_mb", perOp(resident, ops), "MB")
	res.add("netsim.xfer.self_us", self("netsim.xfer"), "us")
	res.add("netsim.xfer.wire_pages", perOp(wire, ops), "count")
	res.add("netsim.xfer.dedup_ratio", ratio(dedup, wire), "ratio")
	res.add("runtime.gc_cycles", perOp(float64(gcs), tracedOps), "count")
	res.add("runtime.gc_pause_ms", perOp(float64(gcPause)/1e6, tracedOps), "ms")
	res.add("op.unattributed_us", self(opSpan), "us")
	res.add("op.traced_wall_us", us(opWallNS-checkNS), "us")
	timedRate := float64(uKids) / uWall.Seconds()
	tracedRate := float64(tKids) / tWall.Seconds()
	res.add("trace.overhead_pct", (timedRate/tracedRate-1)*100, "%")
	res.add("virt.replay_mismatch_ratio", perOp(float64(res.virtDiffs), res.replayed), "ratio")

	res.table = selfTable(ops, tracedOps, selfNS, opWallNS-checkNS, checkNS)
	if traceOut != "" {
		if err := writeChrome(all, filepath.Join(traceOut, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// selfTable renders the per-layer self-time table: per-operation wall
// self time of every layer, plus the time no layer covers, adding up to
// the traced operation's wall time (checks excluded).
func selfTable(ops, tracedOps int, selfNS map[string]int64, opNS, checkNS int64) string {
	per := func(ns int64) float64 { return float64(ns) / 1e3 / float64(tracedOps) }
	var b strings.Builder
	fmt.Fprintf(&b, "  self time per operation over %d traced operations (rounds of %d):\n", tracedOps, ops)
	var rows int64
	names := append([]string(nil), layerSpans...)
	sort.SliceStable(names, func(i, j int) bool { return selfNS[names[i]] > selfNS[names[j]] })
	for _, n := range names {
		fmt.Fprintf(&b, "    %-24s %12.3f us\n", n, per(selfNS[n]))
		rows += selfNS[n]
	}
	fmt.Fprintf(&b, "    %-24s %12.3f us\n", "unattributed", per(selfNS[opSpan]))
	fmt.Fprintf(&b, "    %-24s %12.3f us (rows + unattributed: %.3f us)\n", "traced op wall", per(opNS), per(rows+selfNS[opSpan]))
	fmt.Fprintf(&b, "    %-24s %12.3f us (excluded)\n", "output checks", per(checkNS))
	return b.String()
}

// writeChrome writes the run's spans in Chrome trace-event format.
func writeChrome(t *obs.Trace, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
