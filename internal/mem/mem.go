// Package mem simulates the machine memory of one physical host as managed
// by the Xen hypervisor: a pool of 4 KiB frames with per-frame ownership and
// reference counting, copy-on-write sharing through the dom_cow
// pseudo-domain, per-domain p2m maps, and direct-paging page-table frame
// accounting. It is the substrate under both unikernel cloning
// (internal/hv) and the Linux process baseline (internal/proc).
package mem

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"nephele/internal/vclock"
)

// PageSize is the machine frame size in bytes.
const PageSize = 4096

// PagesPerPTFrame is the number of mappings one page-table frame covers
// (512 8-byte entries, as on x86-64).
const PagesPerPTFrame = 512

// DomID identifies a domain as the owner of frames. The mem package does
// not interpret IDs beyond the reserved values below.
type DomID uint32

// Reserved domain IDs, mirroring Xen's.
const (
	DomIDInvalid DomID = 0x7FF4
	// DomIDCOW is the pseudo-domain that owns shared (copy-on-write)
	// frames, Xen's dom_cow.
	DomIDCOW DomID = 0x7FF2
	// DomIDChild is the wildcard used by grant references and event
	// channels to designate not-yet-existing clone children (§5.1).
	DomIDChild DomID = 0x7FF1
	// DomIDCache is the pseudo-domain the toolstack's snapshot image
	// cache allocates resident chunk frames under; like dom_cow it never
	// runs, it only owns memory.
	DomIDCache DomID = 0x7FF3
	// DomID0 is the host domain.
	DomID0 DomID = 0
)

// MFN is a machine frame number.
type MFN uint64

// PFN is a guest-physical (pseudo-physical) frame number.
type PFN uint64

// InvalidMFN marks an unmapped p2m slot.
const InvalidMFN = MFN(^uint64(0))

// Errors returned by the memory subsystem.
var (
	ErrOutOfMemory   = errors.New("mem: out of machine memory")
	ErrBadFrame      = errors.New("mem: bad frame number")
	ErrNotOwner      = errors.New("mem: domain does not own frame")
	ErrNotShared     = errors.New("mem: frame is not shared")
	ErrBadPFN        = errors.New("mem: pfn not populated")
	ErrReadOnly      = errors.New("mem: write to read-only mapping without fault handling")
	ErrBadOffset     = errors.New("mem: access crosses page boundary")
	ErrDoubleFree    = errors.New("mem: frame already free")
	ErrStillShared   = errors.New("mem: frame still has sharers")
	ErrSpaceRetired  = errors.New("mem: address space was released")
	ErrStreamPending = errors.New("mem: space still has unstreamed lazy pages")
	ErrNotPledged    = errors.New("mem: frame carries no pledge")
	ErrBadStride     = errors.New("mem: shard count must be a power of two within limits")
)

// frame is one machine page. Data is allocated lazily: nil means the frame
// reads as zeroes and has never been written, which keeps host memory usage
// proportional to pages actually touched even when thousands of simulated
// domains exist.
//
// pledges counts lazy-clone children that hold an unmaterialized claim on
// the frame's clone-time contents (DESIGN.md §13). A pledged frame's
// contents are immutable: any write path converts it to dom_cow first and
// copies away, and teardown keeps a pledged frame alive as a dom_cow
// "zombie" (refcount 0, pledges > 0) until the last pledge is adopted or
// cancelled.
//
// frozen means data may also be referenced by an immutable snapshot page
// (SnapshotFrames) or cache page (Install), so any in-place store must
// first clone it (frame.store, which clears the bit). Allocation and
// release clear it along with the buffer.
type frame struct {
	owner    DomID
	refcount int32
	pledges  int32
	inUse    bool
	frozen   bool
	data     []byte
}

// store returns f's buffer ready for an in-place store: allocated when the
// frame has never been written, cloned when a snapshot or cache page may
// share it — one page copy, paid only by frames written after a capture.
// The frame's shard must be locked.
func (f *frame) store() []byte {
	switch {
	case f.data == nil:
		f.data = make([]byte, PageSize)
	case f.frozen:
		d := make([]byte, PageSize)
		copy(d, f.data)
		f.data = d
		f.frozen = false
	}
	return f.data
}

// Shard sizing. The pool is split into contiguous MFN-range shards (a
// power-of-two count); pools too small to give every shard
// minFramesPerShard collapse to fewer shards so tiny test pools stay
// single-lock and fully deterministic. New picks at most defaultMaxShards
// on its own; Restride can go up to MaxShards.
const (
	// MaxShards is the hard upper bound on the shard count (power of two):
	// shard lock masks are uint32 bitmaps.
	MaxShards = 32
	// defaultMaxShards caps the shard count New chooses automatically.
	defaultMaxShards = 16
	// minFramesPerShard keeps shards from becoming so small that a single
	// guest straddles many of them (4096 frames = 16 MiB).
	minFramesPerShard = 4096
)

// shard is one MFN-range slice of the pool with its own lock, free list,
// watermark recycler and accounting. A frame's metadata lives in exactly
// one shard (the one covering its MFN), so per-domain usage and the
// dom_cow sharer table are naturally partitioned. The struct is padded to
// a multiple of the cache line size: shards live in one slice, and without
// padding two neighbours' mutexes would share a line and bounce it between
// cores even when the workloads are disjoint.
type shard struct {
	mu sync.Mutex

	lo   MFN // first MFN of the range
	size int // frames in the range (0 for tail shards past the pool end)

	frames    []frame // metadata indexed by mfn-lo, grown lazily
	watermark int     // frames handed out from the range start
	recycled  []MFN   // freed frames, reused LIFO
	usedByDom map[DomID]int

	// free and shared mirror the lock-held state so aggregate readers
	// (FreeFrames, SharedFrames) can sum them without taking every lock;
	// they are only mutated under mu, bracketed by the pool's seqlock.
	free   atomic.Int64
	shared atomic.Int64

	_ [24]byte // pad to 128 bytes
}

// layout is one generation of the pool's shard geometry: the stride, the
// shard slice, and everything derived from them. Operations pin the current
// layout with one atomic load, derive their segments against it, and
// validate the pin after locking (see Memory); Restride builds a fresh
// layout under full quiescence and publishes it with one pointer store, so
// a layout's geometry is immutable for its whole lifetime.
type layout struct {
	total  int  // pool size in frames (same for every generation)
	stride int  // frames per shard range (power of two)
	shift  uint // log2(stride): MFN → shard index is one shift
	epoch  uint64
	shards []shard
}

// Memory is the machine memory pool. All methods are safe for concurrent
// use by multiple simulated domains.
//
// The pool is sharded: MFNs are split into contiguous power-of-two-count
// ranges, each with its own mutex, free list, watermark/LIFO recycler and
// ownership accounting, so concurrent clones of different parents lock
// disjoint shards instead of serializing on one pool mutex. Operations on
// frame runs lock only the shards the run touches, always in ascending
// shard order (the pool-wide lock order, see DESIGN.md §10), and
// cross-shard runs split at shard boundaries. Global counters (free
// frames, dom_cow frames) are per-shard atomics aggregated under a
// seqlock-style read path so aggregate reads stay one coherent pass.
//
// The shard geometry itself is dynamic (Restride, DESIGN.md §14): the
// current geometry lives in an atomically published layout, every
// operation pins it with one atomic load and re-validates the pin after
// taking its shard locks, and the re-stride writer swaps in a rebuilt
// layout only while holding every shard lock of the old one. An operation
// that loses that race observes the swap on its post-lock validation,
// drops its locks and re-derives against the new layout — frame state is
// keyed by MFN, which no re-stride ever changes, so the retry is invisible
// to callers.
//
// Frame metadata is materialized lazily: frames above a shard's allocation
// watermark have never existed, so creating a multi-GiB pool costs nothing
// until frames are handed out. Allocation is deterministic given the
// operation sequence: a domain allocates from its home shard (a
// stride-stable multiplicative hash of its ID) first — recycled frames
// LIFO, then the lowest never-allocated MFN of the range — and overflows
// to the next shards in ascending wrap-around order.
type Memory struct {
	total int // pool size in frames

	// lay is the current shard geometry. Loaded once per operation
	// (pinned), re-validated after the operation's shard locks are taken.
	lay atomic.Pointer[layout]

	// restrideMu serializes re-stride writers. In the pool-wide lock order
	// it comes strictly before every shard lock: Restride acquires it and
	// then the full shard mask, and no code path acquires it while holding
	// a shard lock (enforced by nephele-lint's lockorder analyzer).
	//
	//nephele:lockorder-prelock
	restrideMu sync.Mutex

	// accSeq is bumped (to odd, then back to even is NOT guaranteed with
	// concurrent writers — readers use plain equality) around every
	// counter mutation; aggregate readers retry while it moves.
	accSeq atomic.Uint64

	// metrics is the opt-in hot-path instrumentation (SetMetrics); nil —
	// the default — keeps lockMask and the COW fault path uninstrumented.
	metrics atomic.Pointer[memMetrics]
}

// newLayout builds the shard slice for total frames at the given shard
// count: stride is ceil(total/nsh) rounded up to a power of two so mapping
// an MFN to its shard is a single shift, and tail shards past the pool end
// cover a short or empty range.
func newLayout(total, nsh int, epoch uint64) *layout {
	per := (total + nsh - 1) / nsh
	if per < 1 {
		per = 1
	}
	shift := uint(bits.Len(uint(per - 1))) // ceil(log2(per))
	stride := 1 << shift
	lay := &layout{total: total, stride: stride, shift: shift, epoch: epoch, shards: make([]shard, nsh)}
	for i := range lay.shards {
		sh := &lay.shards[i]
		sh.lo = MFN(i * stride)
		sh.size = 0
		if rest := total - i*stride; rest > 0 {
			sh.size = stride
			if rest < stride {
				sh.size = rest
			}
		}
		sh.usedByDom = make(map[DomID]int)
		sh.free.Store(int64(sh.size))
	}
	return lay
}

// New creates a machine memory pool of totalBytes (rounded down to whole
// frames). The shard count is always a power of two and the stride is
// rounded up to a power of two, so mapping an MFN to its shard is a single
// shift on the clone hot path; when the total is not a multiple of the
// stride, tail shards cover a short or empty range.
func New(totalBytes uint64) *Memory {
	total := int(totalBytes / PageSize)
	nsh := 1
	for nsh < defaultMaxShards && total/(nsh*2) >= minFramesPerShard {
		nsh *= 2
	}
	m := &Memory{total: total}
	m.lay.Store(newLayout(total, nsh, 0))
	return m
}

// Shards reports the number of MFN-range shards the pool is split into.
func (m *Memory) Shards() int { return len(m.lay.Load().shards) }

// Stride reports the current frames-per-shard stride (a power of two).
func (m *Memory) Stride() int { return m.lay.Load().stride }

// LayoutEpoch reports the pool's re-stride generation: 0 at New, +1 per
// completed Restride. A failed or no-op Restride leaves it unchanged.
func (m *Memory) LayoutEpoch() uint64 { return m.lay.Load().epoch }

// shardIdx maps an in-range MFN to its shard index.
func (lay *layout) shardIdx(mfn MFN) int { return int(mfn >> lay.shift) }

// shardChecked returns the shard covering mfn, or ErrBadFrame.
func (lay *layout) shardChecked(mfn MFN) (*shard, error) {
	if int(mfn) >= lay.total {
		return nil, fmt.Errorf("%w: %d", ErrBadFrame, mfn)
	}
	return &lay.shards[lay.shardIdx(mfn)], nil
}

// frameAt returns the frame metadata for mfn. The shard covering mfn must
// be locked by the caller under a validated pin of this layout.
func (lay *layout) frameAt(mfn MFN) (*frame, error) {
	if int(mfn) >= lay.total {
		return nil, fmt.Errorf("%w: %d", ErrBadFrame, mfn)
	}
	sh := &lay.shards[lay.shardIdx(mfn)]
	idx := int(mfn - sh.lo)
	if idx >= len(sh.frames) || !sh.frames[idx].inUse {
		return nil, fmt.Errorf("%w: %d", ErrDoubleFree, mfn)
	}
	return &sh.frames[idx], nil
}

// segment is a contiguous frame-index range [a, b) within one shard — the
// unit the batched run operations work in. Input runs are split at MFN
// discontinuities and at shard boundaries before any lock is taken, so the
// per-frame loops inside the critical sections are plain walks over a
// shard's frame array with no per-frame index math, as cheap as the
// pre-shard single-array code.
type segment struct {
	sh   *shard
	si   int // shard index, for per-shard accounting arrays
	a, b int // frame-index range within sh.frames
}

// segStack sizes the callers' on-stack segment buffers; a clone of a
// non-fragmented space produces a handful of segments, so the buffer
// almost never spills.
const segStack = 24

// frames returns the materialized slice of the segment's frames and whether
// the segment extends past the shard's watermark-grown array (those trailing
// frames have never been allocated, i.e. they are not in use).
func (sg segment) frames() ([]frame, bool) {
	fr := sg.sh.frames
	if sg.b <= len(fr) {
		return fr[sg.a:sg.b], false
	}
	if sg.a >= len(fr) {
		return nil, true
	}
	return fr[sg.a:], true
}

// mfn returns the machine frame number of the segment's j-th frame.
func (sg segment) mfn(j int) MFN { return sg.sh.lo + MFN(sg.a+j) }

// segmentsMFNs splits a run of MFNs into contiguous same-shard segments,
// accumulating the shard lock mask. An out-of-range MFN fails the whole
// call (the callers' validate-before-mutate contract).
func (lay *layout) segmentsMFNs(mfns []MFN, segs []segment) ([]segment, uint32, error) {
	var mask uint32
	for lo := 0; lo < len(mfns); {
		start := mfns[lo]
		if int(start) >= lay.total {
			return nil, 0, fmt.Errorf("%w: %d", ErrBadFrame, start)
		}
		si := int(start >> lay.shift)
		sh := &lay.shards[si]
		mask |= 1 << si
		end := start + 1
		lim := sh.lo + MFN(sh.size)
		hi := lo + 1
		for hi < len(mfns) && end < lim && mfns[hi] == end {
			hi++
			end++
		}
		segs = append(segs, segment{sh: sh, si: si, a: int(start - sh.lo), b: int(end - sh.lo)})
		lo = hi
	}
	return segs, mask, nil
}

// segmentsPTEs is segmentsMFNs over the frames referenced by a run of
// page-table entries, so the clone hot path never materializes an MFN list.
func (lay *layout) segmentsPTEs(ptes []pte, segs []segment) ([]segment, uint32, error) {
	var mask uint32
	for lo := 0; lo < len(ptes); {
		start := ptes[lo].mfn
		if int(start) >= lay.total {
			return nil, 0, fmt.Errorf("%w: %d", ErrBadFrame, start)
		}
		si := int(start >> lay.shift)
		sh := &lay.shards[si]
		mask |= 1 << si
		end := start + 1
		lim := sh.lo + MFN(sh.size)
		hi := lo + 1
		for hi < len(ptes) && end < lim && ptes[hi].mfn == end {
			hi++
			end++
		}
		segs = append(segs, segment{sh: sh, si: si, a: int(start - sh.lo), b: int(end - sh.lo)})
		lo = hi
	}
	return segs, mask, nil
}

// segmentsSkipBad is segmentsMFNs under ReleaseN's skip-and-record rules:
// out-of-range MFNs are dropped from the segments and the first such error
// is returned alongside them instead of failing the call.
func (lay *layout) segmentsSkipBad(mfns []MFN, segs []segment) ([]segment, uint32, error) {
	var mask uint32
	var firstErr error
	for lo := 0; lo < len(mfns); {
		start := mfns[lo]
		if int(start) >= lay.total {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: %d", ErrBadFrame, start)
			}
			lo++
			continue
		}
		si := int(start >> lay.shift)
		sh := &lay.shards[si]
		mask |= 1 << si
		end := start + 1
		lim := sh.lo + MFN(sh.size)
		hi := lo + 1
		for hi < len(mfns) && end < lim && mfns[hi] == end {
			hi++
			end++
		}
		segs = append(segs, segment{sh: sh, si: si, a: int(start - sh.lo), b: int(end - sh.lo)})
		lo = hi
	}
	return segs, mask, firstErr
}

// maskOf computes the set of shards a frame run touches as a bitmask.
// Out-of-range MFNs are skipped (the caller's per-frame validation reports
// them); the mask only drives locking.
func (lay *layout) maskOf(n int, mfnAt func(int) MFN) uint32 {
	var mask uint32
	for i := 0; i < n; i++ {
		if mfn := mfnAt(i); int(mfn) < lay.total {
			mask |= 1 << lay.shardIdx(mfn)
		}
	}
	return mask
}

// lockMask locks lay's shards in mask in ascending index order — the single
// pool-wide lock order that rules out lock-order inversion between
// Snapshot, ReleaseN and every other multi-shard operation. It is the one
// designated multi-shard acquisition point: everything else must lock one
// shard at a time or funnel through it (enforced by nephele-lint).
//
// acquisition order is ascending by construction.
//
//nephele:lockorder-helper — set bits are walked low to high, so
func (m *Memory) lockMask(lay *layout, mask uint32) {
	if mm := m.metrics.Load(); mm != nil {
		start := time.Now() //nephele:nondeterministic-ok — lock-wait wall time is a diagnostic metric, never used for ordering
		for w := mask; w != 0; w &= w - 1 {
			lay.shards[bits.TrailingZeros32(w)].mu.Lock()
		}
		mm.lockWaitNS.Add(int64(time.Since(start))) //nephele:nondeterministic-ok — lock-wait wall time is a diagnostic metric, never used for ordering
		mm.lockAcquisitions.Add(int64(bits.OnesCount32(mask)))
		return
	}
	for w := mask; w != 0; w &= w - 1 {
		lay.shards[bits.TrailingZeros32(w)].mu.Lock()
	}
}

func (m *Memory) unlockMask(lay *layout, mask uint32) {
	for w := mask; w != 0; w &= w - 1 {
		lay.shards[bits.TrailingZeros32(w)].mu.Unlock()
	}
}

// lockLayout locks mask's shards in lay and confirms lay is still the
// pool's published layout. On failure — a Restride won the race between
// the caller's pin and its lock acquisition — the locks are dropped and
// the caller must re-pin and re-derive its segments. Restride swaps the
// layout only while holding every old shard lock, so a true return
// guarantees the locked shards are current for as long as they stay held.
//
//nephele:lockorder-helper — delegates to lockMask, ascending by construction.
func (m *Memory) lockLayout(lay *layout, mask uint32) bool {
	m.lockMask(lay, mask)
	if m.lay.Load() == lay {
		return true
	}
	m.unlockMask(lay, mask)
	return false
}

// lockShard pins the current layout and locks the single shard covering
// mfn, retrying when a concurrent Restride swapped the layout between the
// pin and the acquisition.
//
//nephele:lockorder-helper — single-shard acquisition, nothing to order.
func (m *Memory) lockShard(mfn MFN) (*layout, *shard, error) {
	for {
		lay := m.lay.Load()
		sh, err := lay.shardChecked(mfn)
		if err != nil {
			return nil, nil, err
		}
		sh.mu.Lock()
		if m.lay.Load() == lay {
			return lay, sh, nil
		}
		sh.mu.Unlock()
	}
}

// allMask covers every shard. Defined for any count up to MaxShards = 32:
// a 32-shard layout shifts the one past the word and the wraparound yields
// all-ones.
func (lay *layout) allMask() uint32 {
	if len(lay.shards) >= 32 {
		return ^uint32(0)
	}
	return uint32(1)<<len(lay.shards) - 1
}

// beginAccount / endAccount bracket mutations of the per-shard atomic
// counters so aggregate readers retry instead of summing mid-update.
// Readers use equality of the two loads (not parity): any in-flight writer
// moves the sequence between them.
func (m *Memory) beginAccount() { m.accSeq.Add(1) }
func (m *Memory) endAccount()   { m.accSeq.Add(1) }

// sumCounters aggregates one per-shard atomic across all shards under the
// seqlock read path, falling back to locking every shard if writers never
// leave a quiescent window. The layout pin participates in the seqlock
// check: a sum taken over a superseded layout is discarded and retried,
// since the new generation's counters are the live ones.
func (m *Memory) sumCounters(read func(*shard) int64) int {
	for tries := 0; tries < 64; tries++ {
		lay := m.lay.Load()
		s1 := m.accSeq.Load()
		var sum int64
		for i := range lay.shards {
			sum += read(&lay.shards[i])
		}
		if m.accSeq.Load() == s1 && m.lay.Load() == lay {
			return int(sum)
		}
	}
	for {
		lay := m.lay.Load()
		if !m.lockLayout(lay, lay.allMask()) {
			continue
		}
		var sum int64
		for i := range lay.shards {
			sum += read(&lay.shards[i])
		}
		m.unlockMask(lay, lay.allMask())
		return int(sum)
	}
}

// TotalFrames reports the machine memory size in frames.
func (m *Memory) TotalFrames() int { return m.total }

// FreeFrames reports the number of unallocated frames.
func (m *Memory) FreeFrames() int {
	return m.sumCounters(func(sh *shard) int64 { return sh.free.Load() })
}

// SharedFrames reports the number of frames owned by dom_cow.
func (m *Memory) SharedFrames() int {
	return m.sumCounters(func(sh *shard) int64 { return sh.shared.Load() })
}

// UsedBy reports the number of frames currently owned by dom. Frames shared
// through dom_cow are charged to DomIDCOW. Each shard is read under its own
// lock; a frame's accounting lives wholly in its shard, so the sum is a
// consistent point-in-time value per shard.
func (m *Memory) UsedBy(dom DomID) int {
	for {
		lay := m.lay.Load()
		used := 0
		stale := false
		for i := range lay.shards {
			sh := &lay.shards[i]
			sh.mu.Lock()
			if m.lay.Load() != lay {
				sh.mu.Unlock()
				stale = true
				break
			}
			used += sh.usedByDom[dom]
			sh.mu.Unlock()
		}
		if !stale {
			return used
		}
	}
}

// homeShardMul is the 64-bit golden-ratio multiplier (2^64 / φ) of
// Fibonacci hashing. Its top bits mix even sequential inputs well, which
// is exactly what domain IDs are: hv hands them out consecutively, and the
// previous dom % nshards mapping marched whole multi-parent clone rounds
// across neighbouring shards in lockstep.
const homeShardMul = 0x9E3779B97F4A7C15

// homeShard is the shard a domain's allocations start from. Spreading
// domains across shards is what keeps concurrent clones of different
// parents off each other's locks.
//
// The mapping takes the top log2(nshards) bits of the mixed ID, which
// makes it stride-stable: doubling the shard count refines every domain's
// home (old home == new home >> 1, a sub-range of the old MFN range)
// instead of re-dealing it, so a re-stride keeps domains next to the
// frames they already allocated.
func (lay *layout) homeShard(dom DomID) int {
	return int((uint64(dom) * homeShardMul) >> (64 - uint(bits.Len(uint(len(lay.shards)-1)))))
}

// HomeShard reports the shard index dom's allocations currently start
// from. The value is advisory — it describes the published layout at the
// time of the call — and is what the batch-clone scheduler uses to predict
// where a child's metadata frames will land.
func (m *Memory) HomeShard(dom DomID) int { return m.lay.Load().homeShard(dom) }

// initFrameLocked hands a frame of sh out to dom; sh must be locked and
// sh.frames must already cover mfn.
func (sh *shard) initFrameLocked(mfn MFN, dom DomID) {
	f := &sh.frames[mfn-sh.lo]
	f.owner = dom
	f.refcount = 1
	f.inUse = true
	f.frozen = false
	f.data = nil
}

// takeLocked allocates up to want frames from sh for dom, appending them to
// out and returning how many it took: recycled frames first (most recent
// first), then a contiguous watermark run — the same order the single-pool
// allocator made within one range. sh must be locked.
func (sh *shard) takeLocked(m *Memory, dom DomID, want int, out *[]MFN) int {
	took := 0
	for took < want && len(sh.recycled) > 0 {
		mfn := sh.recycled[len(sh.recycled)-1]
		sh.recycled = sh.recycled[:len(sh.recycled)-1]
		sh.initFrameLocked(mfn, dom)
		*out = append(*out, mfn)
		took++
	}
	if rest := want - took; rest > 0 {
		run := sh.size - sh.watermark
		if run > rest {
			run = rest
		}
		if run > 0 {
			if need := sh.watermark + run - len(sh.frames); need > 0 {
				sh.frames = append(sh.frames, make([]frame, need)...)
			}
			for i := 0; i < run; i++ {
				mfn := sh.lo + MFN(sh.watermark+i)
				sh.initFrameLocked(mfn, dom)
				*out = append(*out, mfn)
			}
			sh.watermark += run
			took += run
		}
	}
	if took > 0 {
		sh.usedByDom[dom] += took
		m.beginAccount()
		sh.free.Add(-int64(took))
		m.endAccount()
	}
	return took
}

// dropUsageLocked decrements dom's usage count on sh; sh must be locked.
func (sh *shard) dropUsageLocked(dom DomID, n int) {
	if n == 0 {
		return
	}
	sh.usedByDom[dom] -= n
	if sh.usedByDom[dom] == 0 {
		delete(sh.usedByDom, dom)
	}
}

// resetFrameLocked returns one frame of sh to its recycled stack without
// touching the per-owner usage accounting (the caller batches that). sh
// must be locked.
func (sh *shard) resetFrameLocked(mfn MFN) {
	f := &sh.frames[mfn-sh.lo]
	f.inUse = false
	f.frozen = false
	f.data = nil
	f.refcount = 0
	f.pledges = 0
	f.owner = DomIDInvalid
	sh.recycled = append(sh.recycled, mfn)
}

// Alloc allocates one frame for dom, charging the meter.
func (m *Memory) Alloc(dom DomID, meter *vclock.Meter) (MFN, error) {
	mfn, err := m.allocOne(dom)
	if err != nil {
		return 0, err
	}
	if meter != nil {
		meter.Charge(meter.Costs().PageAlloc, 1)
	}
	return mfn, nil
}

// allocOne takes one frame from the first shard that has one, starting at
// dom's home shard. Shards are locked one at a time, never nested; a
// re-stride mid-scan restarts the scan against the new layout (any frame
// already taken stays taken — MFNs survive re-strides).
func (m *Memory) allocOne(dom DomID) (MFN, error) {
	var out []MFN
	for {
		lay := m.lay.Load()
		home := lay.homeShard(dom)
		stale := false
		for k := 0; k < len(lay.shards); k++ {
			sh := &lay.shards[(home+k)%len(lay.shards)]
			sh.mu.Lock()
			if m.lay.Load() != lay {
				sh.mu.Unlock()
				stale = true
				break
			}
			took := sh.takeLocked(m, dom, 1, &out)
			sh.mu.Unlock()
			if took == 1 {
				return out[0], nil
			}
		}
		if !stale {
			return 0, ErrOutOfMemory
		}
	}
}

// AllocN allocates n frames for dom, locking each shard it draws from once
// and charging the meter once for the whole run. On failure nothing stays
// allocated: frames taken from earlier shards are returned before the
// error comes back.
func (m *Memory) AllocN(dom DomID, n int, meter *vclock.Meter) ([]MFN, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]MFN, 0, n)
	for {
		lay := m.lay.Load()
		home := lay.homeShard(dom)
		stale := false
		for k := 0; k < len(lay.shards) && len(out) < n; k++ {
			sh := &lay.shards[(home+k)%len(lay.shards)]
			sh.mu.Lock()
			if m.lay.Load() != lay {
				sh.mu.Unlock()
				stale = true
				break
			}
			sh.takeLocked(m, dom, n-len(out), &out)
			sh.mu.Unlock()
		}
		if len(out) >= n {
			break
		}
		if !stale {
			m.ReleaseN(dom, out)
			return nil, fmt.Errorf("%w: want %d frames, %d free", ErrOutOfMemory, n, m.FreeFrames())
		}
	}
	if meter != nil {
		meter.Charge(meter.Costs().PageAlloc, n)
	}
	return out, nil
}

// Free releases a frame owned by dom. Frames owned by dom_cow must be
// released by dropping sharer references (DropShared) instead.
func (m *Memory) Free(dom DomID, mfn MFN) error {
	lay, sh, err := m.lockShard(mfn)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	f, err := lay.frameAt(mfn)
	if err != nil {
		return err
	}
	if f.owner != dom {
		return fmt.Errorf("%w: frame %d owned by %d, freed by %d", ErrNotOwner, mfn, f.owner, dom)
	}
	if f.owner == DomIDCOW {
		return fmt.Errorf("%w: frame %d", ErrStillShared, mfn)
	}
	if f.pledges > 0 {
		// Lazy children still hold claims on the clone-time contents: the
		// frame outlives its owner as a dom_cow zombie until the last
		// pledge is adopted or cancelled.
		sh.zombifyLocked(m, f, dom)
		return nil
	}
	sh.dropUsageLocked(f.owner, 1)
	sh.resetFrameLocked(mfn)
	m.beginAccount()
	sh.free.Add(1)
	m.endAccount()
	return nil
}

// zombifyLocked turns a dom-owned frame with outstanding pledges into a
// dom_cow zombie (refcount 0): the contents stay readable for lazy children
// but no live domain owns the frame. sh must be locked.
func (sh *shard) zombifyLocked(m *Memory, f *frame, dom DomID) {
	sh.dropUsageLocked(dom, 1)
	f.owner = DomIDCOW
	f.refcount = 0
	sh.usedByDom[DomIDCOW]++
	m.beginAccount()
	sh.shared.Add(1)
	m.endAccount()
}

// Owner reports the owner of a frame.
func (m *Memory) Owner(mfn MFN) (DomID, error) {
	lay, sh, err := m.lockShard(mfn)
	if err != nil {
		return DomIDInvalid, err
	}
	defer sh.mu.Unlock()
	f, err := lay.frameAt(mfn)
	if err != nil {
		return DomIDInvalid, err
	}
	return f.owner, nil
}

// Refcount reports the sharer count of a frame.
func (m *Memory) Refcount(mfn MFN) (int, error) {
	lay, sh, err := m.lockShard(mfn)
	if err != nil {
		return 0, err
	}
	defer sh.mu.Unlock()
	f, err := lay.frameAt(mfn)
	if err != nil {
		return 0, err
	}
	return int(f.refcount), nil
}

// Share transfers ownership of a frame from its current owner to dom_cow
// and sets its reference count to refs sharers (parent plus children). This
// is the page-sharing mechanism Nephele extends from Snowflock (§5.2):
// subsequent writers fault and receive private copies.
func (m *Memory) Share(dom DomID, mfn MFN, refs int, meter *vclock.Meter) error {
	if refs < 1 {
		return fmt.Errorf("mem: share with %d refs", refs)
	}
	lay, sh, err := m.lockShard(mfn)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	f, err := lay.frameAt(mfn)
	if err != nil {
		return err
	}
	if f.owner == DomIDCOW {
		// Already shared: the new family members just add references.
		f.refcount += int32(refs - 1)
		return nil
	}
	if f.owner != dom {
		return fmt.Errorf("%w: frame %d owned by %d, shared by %d", ErrNotOwner, mfn, f.owner, dom)
	}
	sh.dropUsageLocked(f.owner, 1)
	f.owner = DomIDCOW
	f.refcount = int32(refs)
	sh.usedByDom[DomIDCOW]++
	m.beginAccount()
	sh.shared.Add(1)
	m.endAccount()
	if meter != nil {
		meter.Charge(meter.Costs().PageShare, 1)
	}
	return nil
}

// ShareN shares a run of frames with refs sharers each, locking the shards
// the run touches (ascending) and charging the meter once for the run. Per
// frame it behaves exactly like Share: frames already owned by dom_cow gain
// refs-1 references at no virtual cost, frames owned by dom are transferred
// to dom_cow and charged one PageShare. Validation runs before any
// mutation, so a failed call leaves the pool untouched.
func (m *Memory) ShareN(dom DomID, mfns []MFN, refs int, meter *vclock.Meter) error {
	var buf [segStack]segment
	for {
		lay := m.lay.Load()
		segs, mask, err := lay.segmentsMFNs(mfns, buf[:0])
		if err != nil {
			return err
		}
		if !m.lockLayout(lay, mask) {
			continue
		}
		return m.shareSegs(lay, dom, segs, mask, refs, meter)
	}
}

// sharePTEs is ShareN over the frames referenced by a run of page-table
// entries, so the clone hot path never materializes an MFN list for runs
// it only shares.
func (m *Memory) sharePTEs(dom DomID, ptes []pte, refs int, meter *vclock.Meter) error {
	var buf [segStack]segment
	for {
		lay := m.lay.Load()
		segs, mask, err := lay.segmentsPTEs(ptes, buf[:0])
		if err != nil {
			return err
		}
		if !m.lockLayout(lay, mask) {
			continue
		}
		return m.shareSegs(lay, dom, segs, mask, refs, meter)
	}
}

// shareSegs applies ShareN's fused validate+mutate pass. The caller has
// locked mask's shards under a validated pin of lay; shareSegs unlocks.
func (m *Memory) shareSegs(lay *layout, dom DomID, segs []segment, mask uint32, refs int, meter *vclock.Meter) error {
	defer m.unlockMask(lay, mask)
	if refs < 1 {
		return fmt.Errorf("mem: share with %d refs", refs)
	}
	for _, sg := range segs {
		fr, short := sg.frames()
		for j := range fr {
			f := &fr[j]
			if !f.inUse {
				return fmt.Errorf("%w: %d", ErrDoubleFree, sg.mfn(j))
			}
			if f.owner != DomIDCOW && f.owner != dom {
				return fmt.Errorf("%w: frame %d owned by %d, shared by %d", ErrNotOwner, sg.mfn(j), f.owner, dom)
			}
		}
		if short {
			return fmt.Errorf("%w: %d", ErrDoubleFree, sg.mfn(len(fr)))
		}
	}
	// Transfers are counted as they happen, so a frame listed twice is
	// transferred (and charged) once and then gains references, exactly
	// as two calls would treat it.
	var perShard [MaxShards]int
	transfers := 0
	for _, sg := range segs {
		fr, _ := sg.frames()
		t := 0
		for j := range fr {
			f := &fr[j]
			if f.owner == DomIDCOW {
				f.refcount += int32(refs - 1)
				continue
			}
			f.owner = DomIDCOW
			f.refcount = int32(refs)
			t++
		}
		perShard[sg.si] += t
		transfers += t
	}
	if transfers > 0 {
		// Every transferred frame was validated as owned by dom, so the
		// per-owner accounting moves per shard instead of per frame.
		m.beginAccount()
		for si := range lay.shards {
			if c := perShard[si]; c > 0 {
				sh := &lay.shards[si]
				sh.dropUsageLocked(dom, c)
				sh.usedByDom[DomIDCOW] += c
				sh.shared.Add(int64(c))
			}
		}
		m.endAccount()
		if meter != nil {
			meter.Charge(meter.Costs().PageShare, transfers)
		}
	}
	return nil
}

// AddSharer increments the reference count of an already-shared frame
// (used when a clone becomes the parent of further clones).
func (m *Memory) AddSharer(mfn MFN, n int) error {
	return m.AddSharerN([]MFN{mfn}, n)
}

// AddSharerN increments the reference count of a run of already-shared
// frames by n each, locking the shards the run touches once. Validation
// runs before any mutation. This is the 2nd..Nth-clone fast path:
// re-cloning an already-COW parent is nothing but sharer bumps.
func (m *Memory) AddSharerN(mfns []MFN, n int) error {
	var buf [segStack]segment
	for {
		lay := m.lay.Load()
		segs, mask, err := lay.segmentsMFNs(mfns, buf[:0])
		if err != nil {
			return err
		}
		if !m.lockLayout(lay, mask) {
			continue
		}
		return m.addSharerSegs(lay, segs, mask, n)
	}
}

// addSharerPTEs is AddSharerN over the frames referenced by a run of
// page-table entries (the 2nd..Nth-clone fast path works straight off the
// parent's table).
func (m *Memory) addSharerPTEs(ptes []pte, n int) error {
	var buf [segStack]segment
	for {
		lay := m.lay.Load()
		segs, mask, err := lay.segmentsPTEs(ptes, buf[:0])
		if err != nil {
			return err
		}
		if !m.lockLayout(lay, mask) {
			continue
		}
		return m.addSharerSegs(lay, segs, mask, n)
	}
}

// addSharerSegs bumps sharer counts in a single fused validate+mutate pass;
// on a validation failure every bump applied so far is subtracted back, so
// a failed call still leaves the pool untouched (the increment is its own
// exact inverse, which is what makes the fusion safe). One pass instead of
// two matters: this is the entire cost of a 2nd..Nth clone. The caller has
// locked mask's shards under a validated pin of lay; addSharerSegs unlocks.
func (m *Memory) addSharerSegs(lay *layout, segs []segment, mask uint32, n int) error {
	defer m.unlockMask(lay, mask)
	undo := func(done int, sg segment, j int) {
		for _, dsg := range segs[:done] {
			fr, _ := dsg.frames()
			for k := range fr {
				fr[k].refcount -= int32(n)
			}
		}
		fr, _ := sg.frames()
		for k := 0; k < j; k++ {
			fr[k].refcount -= int32(n)
		}
	}
	for si, sg := range segs {
		fr, short := sg.frames()
		for j := range fr {
			f := &fr[j]
			if !f.inUse {
				undo(si, sg, j)
				return fmt.Errorf("%w: %d", ErrDoubleFree, sg.mfn(j))
			}
			if f.owner != DomIDCOW {
				undo(si, sg, j)
				return fmt.Errorf("%w: frame %d owned by %d", ErrNotShared, sg.mfn(j), f.owner)
			}
			f.refcount += int32(n)
		}
		if short {
			undo(si, sg, len(fr))
			return fmt.Errorf("%w: %d", ErrDoubleFree, sg.mfn(len(fr)))
		}
	}
	return nil
}

// CopyOnWrite resolves a write fault by dom on a shared frame. If the frame
// still has other sharers, a fresh private frame is allocated, the contents
// copied, and the sharer count dropped. If dom is the last sharer
// (refcount 1), ownership is transferred from dom_cow directly to the
// faulting domain — which may differ from the original owner (§5.2) — with
// no copy. Returns the MFN the domain should map afterwards.
func (m *Memory) CopyOnWrite(dom DomID, mfn MFN, meter *vclock.Meter) (MFN, error) {
	lay, sh, err := m.lockShard(mfn)
	if err != nil {
		return 0, err
	}
	f, err := lay.frameAt(mfn)
	if err != nil {
		sh.mu.Unlock()
		return 0, err
	}
	if owner := f.owner; owner != DomIDCOW {
		// Capture the owner under the lock: a streamer may convert the
		// frame to dom_cow as soon as the shard is unlocked.
		sh.mu.Unlock()
		return 0, fmt.Errorf("%w: frame %d owned by %d", ErrNotShared, mfn, owner)
	}
	if f.refcount == 1 && f.pledges == 0 {
		m.transferLastSharerLocked(sh, f, dom)
		sh.mu.Unlock()
		if meter != nil {
			meter.Charge(meter.Costs().PageUnshare, 1)
		}
		return mfn, nil
	}
	sh.mu.Unlock()

	// Other sharers exist: allocate the private copy first (shards are
	// locked one at a time, so the allocation may come from any shard
	// without nesting under the source lock), then relock source and
	// destination in ascending shard order for the copy.
	newMFN, err := m.allocOne(dom)
	if err != nil {
		return 0, err
	}
	if meter != nil {
		meter.Charge(meter.Costs().PageAlloc, 1)
	}
	for {
		lay := m.lay.Load()
		mask := uint32(1<<lay.shardIdx(mfn)) | 1<<lay.shardIdx(newMFN)
		if !m.lockLayout(lay, mask) {
			continue
		}
		f, err = lay.frameAt(mfn)
		if err == nil && f.owner != DomIDCOW {
			err = fmt.Errorf("%w: frame %d owned by %d", ErrNotShared, mfn, f.owner)
		}
		if err != nil {
			m.unlockMask(lay, mask)
			m.releaseOne(dom, newMFN)
			return 0, err
		}
		if f.refcount == 1 && f.pledges == 0 {
			// Raced with the other sharers dropping out between the unlock
			// and the relock: transfer ownership as the last sharer and
			// return the speculative frame.
			m.transferLastSharerLocked(&lay.shards[lay.shardIdx(mfn)], f, dom)
			m.unlockMask(lay, mask)
			m.releaseOne(dom, newMFN)
			if meter != nil {
				meter.Charge(meter.Costs().PageUnshare, 1)
			}
			return mfn, nil
		}
		nf, _ := lay.frameAt(newMFN)
		if f.data != nil {
			nf.data = make([]byte, PageSize)
			copy(nf.data, f.data)
		}
		f.refcount--
		m.unlockMask(lay, mask)
		if meter != nil {
			meter.Charge(meter.Costs().PageUnshare, 1)
		}
		return newMFN, nil
	}
}

// transferLastSharerLocked moves a dom_cow frame whose last sharer is dom
// back to exclusive ownership; sh (the frame's shard) must be locked.
func (m *Memory) transferLastSharerLocked(sh *shard, f *frame, dom DomID) {
	sh.dropUsageLocked(DomIDCOW, 1)
	f.owner = dom
	sh.usedByDom[dom]++
	m.beginAccount()
	sh.shared.Add(-1)
	m.endAccount()
}

// releaseOne frees a frame owned by dom, ignoring errors (speculative
// allocation unwind).
func (m *Memory) releaseOne(dom DomID, mfn MFN) {
	lay, sh, err := m.lockShard(mfn)
	if err != nil {
		return
	}
	defer sh.mu.Unlock()
	f, err := lay.frameAt(mfn)
	if err != nil || f.owner != dom {
		return
	}
	sh.dropUsageLocked(dom, 1)
	sh.resetFrameLocked(mfn)
	m.beginAccount()
	sh.free.Add(1)
	m.endAccount()
}

// DropShared releases one sharer reference on a shared frame without
// copying (domain teardown). When the last reference drops, the frame is
// freed.
func (m *Memory) DropShared(mfn MFN) error {
	lay, sh, err := m.lockShard(mfn)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	f, err := lay.frameAt(mfn)
	if err != nil {
		return err
	}
	if f.owner != DomIDCOW {
		return fmt.Errorf("%w: frame %d owned by %d", ErrNotShared, mfn, f.owner)
	}
	f.refcount--
	if f.refcount == 0 && f.pledges == 0 {
		sh.dropUsageLocked(DomIDCOW, 1)
		sh.resetFrameLocked(mfn)
		m.beginAccount()
		sh.shared.Add(-1)
		sh.free.Add(1)
		m.endAccount()
	}
	return nil
}

// ReleaseN releases a run of frames on behalf of dom, locking the shards
// the run touches (ascending) once and applying the domain-teardown rules
// per frame: dom_cow frames drop one sharer reference (freeing on the
// last), frames owned by dom are freed, and frames owned by anyone else
// are skipped. Bad frames are recorded and skipped; the first error is
// returned after the whole run is processed.
func (m *Memory) ReleaseN(dom DomID, mfns []MFN) error {
	var buf [segStack]segment
	for {
		lay := m.lay.Load()
		segs, mask, firstErr := lay.segmentsSkipBad(mfns, buf[:0])
		if !m.lockLayout(lay, mask) {
			continue
		}
		return m.releaseSegs(lay, dom, segs, mask, firstErr)
	}
}

// releasePTEs is ReleaseN over the frames referenced by the present entries
// of a page table, so releasing a whole space never materializes an MFN
// list. Entries that are not present are skipped without error (an already
// torn-down mapping has nothing to release).
func (m *Memory) releasePTEs(dom DomID, ptes []pte) error {
	var buf [segStack]segment
	for {
		lay := m.lay.Load()
		var mask uint32
		var firstErr error
		segs := buf[:0]
		for lo := 0; lo < len(ptes); {
			if !ptes[lo].present {
				lo++
				continue
			}
			start := ptes[lo].mfn
			if int(start) >= lay.total {
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: %d", ErrBadFrame, start)
				}
				lo++
				continue
			}
			si := int(start >> lay.shift)
			sh := &lay.shards[si]
			mask |= 1 << si
			end := start + 1
			lim := sh.lo + MFN(sh.size)
			hi := lo + 1
			for hi < len(ptes) && end < lim && ptes[hi].present && ptes[hi].mfn == end {
				hi++
				end++
			}
			segs = append(segs, segment{sh: sh, si: si, a: int(start - sh.lo), b: int(end - sh.lo)})
			lo = hi
		}
		if !m.lockLayout(lay, mask) {
			continue
		}
		return m.releaseSegs(lay, dom, segs, mask, firstErr)
	}
}

// releaseSegs applies the domain-teardown rules over locked segments. The
// caller has locked mask's shards under a validated pin of lay;
// releaseSegs unlocks.
func (m *Memory) releaseSegs(lay *layout, dom DomID, segs []segment, mask uint32, firstErr error) error {
	defer m.unlockMask(lay, mask)
	var ownFreed, cowFreed, zombied [MaxShards]int
	for _, sg := range segs {
		sh := sg.sh
		fr, short := sg.frames()
		for j := range fr {
			f := &fr[j]
			if !f.inUse {
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: %d", ErrDoubleFree, sg.mfn(j))
				}
				continue
			}
			switch f.owner {
			case DomIDCOW:
				f.refcount--
				if f.refcount == 0 && f.pledges == 0 {
					cowFreed[sg.si]++
					sh.resetFrameLocked(sg.mfn(j))
				}
			case dom:
				if f.pledges > 0 {
					// Lazy children still claim the clone-time contents:
					// keep the frame as a dom_cow zombie.
					f.owner = DomIDCOW
					f.refcount = 0
					zombied[sg.si]++
				} else {
					ownFreed[sg.si]++
					sh.resetFrameLocked(sg.mfn(j))
				}
			}
		}
		if short && firstErr == nil {
			firstErr = fmt.Errorf("%w: %d", ErrDoubleFree, sg.mfn(len(fr)))
		}
	}
	m.beginAccount()
	for si := range lay.shards {
		sh := &lay.shards[si]
		if c := ownFreed[si]; c > 0 {
			sh.dropUsageLocked(dom, c)
			sh.free.Add(int64(c))
		}
		if c := cowFreed[si]; c > 0 {
			sh.dropUsageLocked(DomIDCOW, c)
			sh.shared.Add(-int64(c))
			sh.free.Add(int64(c))
		}
		if c := zombied[si]; c > 0 {
			sh.dropUsageLocked(dom, c)
			sh.usedByDom[DomIDCOW] += c
			sh.shared.Add(int64(c))
		}
	}
	m.endAccount()
	return firstErr
}

// Read copies the contents at (mfn, off) into buf. Reading a never-written
// frame yields zeroes.
func (m *Memory) Read(mfn MFN, off int, buf []byte) error {
	lay, sh, err := m.lockShard(mfn)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	f, err := lay.frameAt(mfn)
	if err != nil {
		return err
	}
	if off < 0 || off+len(buf) > PageSize {
		return ErrBadOffset
	}
	if f.data == nil {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	copy(buf, f.data[off:])
	return nil
}

// Write stores buf at (mfn, off). Write does not check ownership or
// sharing; address spaces enforce COW before calling it.
func (m *Memory) Write(mfn MFN, off int, buf []byte) error {
	lay, sh, err := m.lockShard(mfn)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	f, err := lay.frameAt(mfn)
	if err != nil {
		return err
	}
	if off < 0 || off+len(buf) > PageSize {
		return ErrBadOffset
	}
	copy(f.store()[off:], buf)
	return nil
}

// Install makes page the contents of frame mfn, for a frame whose page
// the caller is handing over for good (the image cache's insert). A full
// page is aliased, not copied: the frame is frozen, so the next Write
// clones it and page never changes through the frame. A shorter page is
// copied, the rest of the frame reading as zeroes. The caller must not
// modify page afterwards. Like Write, Install checks neither ownership nor
// sharing.
func (m *Memory) Install(mfn MFN, page []byte) error {
	if len(page) > PageSize {
		return ErrBadOffset
	}
	lay, sh, err := m.lockShard(mfn)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	f, err := lay.frameAt(mfn)
	if err != nil {
		return err
	}
	if len(page) == PageSize {
		f.data, f.frozen = page[:PageSize:PageSize], true
		return nil
	}
	f.data, f.frozen = make([]byte, PageSize), false
	copy(f.data, page)
	return nil
}

// CopyFrame copies the full contents of src into dst, charging one page
// copy.
func (m *Memory) CopyFrame(dst, src MFN, meter *vclock.Meter) error {
	return m.CopyFrameN([]MFN{dst}, []MFN{src}, meter)
}

// CopyFrameN copies src[i] into dst[i] for every i, locking the shards both
// runs touch (ascending) and charging the meter once for the run
// (PageCopy × len). Validation of the slice lengths happens up front; a bad
// frame mid-run stops the copy there.
func (m *Memory) CopyFrameN(dst, src []MFN, meter *vclock.Meter) error {
	if len(dst) != len(src) {
		return fmt.Errorf("mem: CopyFrameN with %d dst, %d src frames", len(dst), len(src))
	}
	for {
		lay := m.lay.Load()
		mask := lay.maskOf(len(dst), func(i int) MFN { return dst[i] }) |
			lay.maskOf(len(src), func(i int) MFN { return src[i] })
		if !m.lockLayout(lay, mask) {
			continue
		}
		err := func() error {
			defer m.unlockMask(lay, mask)
			for i := range dst {
				if err := lay.copyFrameLocked(dst[i], src[i]); err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			return err
		}
		if meter != nil && len(dst) > 0 {
			meter.Charge(meter.Costs().PageCopy, len(dst))
		}
		return nil
	}
}

// copyFrameLocked copies src into dst; the shards of both must be locked.
func (lay *layout) copyFrameLocked(dst, src MFN) error {
	fs, err := lay.frameAt(src)
	if err != nil {
		return err
	}
	fd, err := lay.frameAt(dst)
	if err != nil {
		return err
	}
	if fs.data == nil {
		fd.data = nil
		fd.frozen = false
	} else {
		copy(fd.store(), fs.data)
	}
	return nil
}

// SnapshotFrames captures the contents of every frame in mfns, one slot per
// input, with nil for frames whose backing store has never been written
// (they read as zeroes). The shards the run touches are locked once, in
// ascending order, so the capture is one coherent pass even while other
// shards keep allocating — and a concurrent ReleaseN on the same shards
// orders strictly before or after the whole snapshot.
//
// The capture copies nothing: each returned page is the frame's own
// buffer, capped at PageSize, and the frame is frozen, so the next store
// into it (Write, a CopyFrameN onto it) clones the buffer first. The pages
// are read-only views that stay as they were captured for as long as they
// are referenced; a caller must never write into one.
func (m *Memory) SnapshotFrames(mfns []MFN) ([][]byte, error) {
	for {
		lay := m.lay.Load()
		mask := lay.maskOf(len(mfns), func(i int) MFN { return mfns[i] })
		if !m.lockLayout(lay, mask) {
			continue
		}
		out := make([][]byte, len(mfns))
		err := func() error {
			defer m.unlockMask(lay, mask)
			for i, mfn := range mfns {
				f, err := lay.frameAt(mfn)
				if err != nil {
					return err
				}
				if f.data != nil {
					f.frozen = true
					out[i] = f.data[:PageSize:PageSize]
				}
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
		return out, nil
	}
}
