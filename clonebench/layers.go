package main

import (
	"runtime"
	"time"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// Span names double as per-layer metric prefixes. checkSpan wraps the
// benchmark's own output checks inside an operation; its time is not part
// of the operation's wall time.
const (
	opSpan    = "op"
	checkSpan = "check"
)

// mode selects how a round drives the program and what it measures.
type mode int

const (
	// timed calls the public entry points bare and times whole
	// operations: the end-to-end measurement.
	timed mode = iota
	// opCounted calls the public entry points and counts the heap objects
	// each operation allocates. Reading the allocation counter stops the
	// world and empties the per-CPU allocation caches, which slows the
	// allocations that follow, so counting never shares a round with
	// timing.
	opCounted
	// traced drives each layer's own public calls, with a benchmark-owned
	// span around each call.
	traced
	// layerCounted drives the same calls as traced and counts the heap
	// objects each call allocates.
	layerCounted
)

// entry reports whether the mode calls the public entry points rather
// than the layers' own calls.
func (m mode) entry() bool { return m == timed || m == opCounted }

// layers is how an operation calls into the program. Workload code wraps
// every layer call in call and every output check in check; the mode
// decides whether that times, traces or counts. One layers value serves
// one round and is used from the round's single client goroutine.
type layers struct {
	mode mode

	// The current operation's wall time and (opCounted) heap objects
	// allocated, both excluding checks.
	opWall   time.Duration
	segStart time.Time
	opAllocs uint64
	memAt    uint64

	// traced: the round's trace, the wall start of each span (obs records
	// a span's wall duration but not its start; self time needs both,
	// indexed like the trace's records) and the active operation's span
	// context.
	trace   *obs.Trace
	epoch   time.Time
	startNS []int64
	opCtx   obs.OpCtx
	opEnd   obs.Span

	// layerCounted: heap objects allocated per layer call, by span name.
	allocs map[string]uint64
}

func newLayers(m mode) *layers {
	l := &layers{mode: m}
	switch m {
	case traced:
		l.trace = obs.NewTrace()
		l.epoch = time.Now()
	case layerCounted:
		l.allocs = make(map[string]uint64)
	}
	return l
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// startSpan opens a benchmark-owned span under ctx. The program never sees
// the trace: calls inside the span get a context carrying only the meter.
func (l *layers) startSpan(ctx obs.OpCtx, name string) (obs.OpCtx, obs.Span) {
	ctx, sp := ctx.StartSpan(name)
	l.startNS = append(l.startNS, time.Since(l.epoch).Nanoseconds())
	return ctx, sp
}

// begin starts operation timing. meter is the operation's virtual clock;
// traced spans stamp their virtual start and end from it.
func (l *layers) begin(meter *vclock.Meter) {
	l.opWall, l.opAllocs = 0, 0
	if l.mode == opCounted {
		l.memAt = mallocs()
	}
	if l.mode == traced {
		l.opCtx, l.opEnd = l.startSpan(obs.Ctx(meter).WithTrace(l.trace), opSpan)
	}
	l.segStart = time.Now()
}

// end stops operation timing.
func (l *layers) end() {
	l.opWall += time.Since(l.segStart)
	if l.mode == opCounted {
		l.opAllocs += mallocs() - l.memAt
	}
	if l.mode == traced {
		l.opEnd.End()
	}
}

// call runs one call into the named layer.
func (l *layers) call(name string, f func()) {
	switch l.mode {
	case traced:
		_, sp := l.startSpan(l.opCtx, name)
		f()
		sp.End()
	case layerCounted:
		before := mallocs()
		f()
		l.allocs[name] += mallocs() - before
	default:
		f()
	}
}

// check runs an output check inside an operation, outside its timing.
func (l *layers) check(f func()) {
	l.opWall += time.Since(l.segStart)
	switch l.mode {
	case traced:
		_, sp := l.startSpan(l.opCtx, checkSpan)
		f()
		sp.End()
	case opCounted:
		l.opAllocs += mallocs() - l.memAt
		f()
		l.memAt = mallocs()
	default:
		f()
	}
	l.segStart = time.Now()
}
