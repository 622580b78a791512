// Package nephele's root benchmark suite: one testing.B benchmark per
// evaluation figure of the paper (run `go test -bench=Fig -benchmem`) plus
// ablation benchmarks for the design choices DESIGN.md calls out. The
// benchmarks report the headline virtual-time metrics via b.ReportMetric,
// so `go test -bench=.` regenerates the numbers EXPERIMENTS.md records;
// cmd/nephele-bench prints the full series.
package nephele_test

import (
	"fmt"
	"testing"
	"time"

	"nephele/internal/apps"
	"nephele/internal/bench"
	"nephele/internal/cloned"
	"nephele/internal/core"
	"nephele/internal/devices"
	"nephele/internal/guest"
	"nephele/internal/hv"
	"nephele/internal/kvm"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// benchGuest is the Fig. 4 guest configuration.
func benchGuest(name string) toolstack.DomainConfig {
	return toolstack.DomainConfig{
		Name:      name,
		MemoryMB:  4,
		VCPUs:     1,
		MaxClones: 1 << 20,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
	}
}

// BenchmarkFig4Instantiation regenerates Figure 4 (boot vs restore vs
// clone+deep-copy vs clone over 300 instances per curve) and reports the
// virtual-millisecond intercepts.
func BenchmarkFig4Instantiation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig4(bench.Fig4Config{Instances: 300, SampleEvery: 50})
		if err != nil {
			b.Fatal(err)
		}
		boot, _ := fig.SeriesByName("boot")
		clone, _ := fig.SeriesByName("clone")
		b.ReportMetric(boot.First().Y, "boot-ms")
		b.ReportMetric(clone.First().Y, "clone-ms")
		b.ReportMetric(boot.First().Y/clone.First().Y, "speedup-x")
	}
}

// BenchmarkFig5MemoryDensity regenerates Figure 5 on a 3 GiB machine and
// reports the boot-vs-clone instance counts.
func BenchmarkFig5MemoryDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig5(bench.Fig5Config{
			HypMemoryBytes:  3 << 30,
			Dom0MemoryBytes: 1 << 30,
			SampleEvery:     200,
		})
		if err != nil {
			b.Fatal(err)
		}
		bootHyp, _ := fig.SeriesByName("Booting Hyp free")
		cloneHyp, _ := fig.SeriesByName("Cloning Hyp free")
		b.ReportMetric(bootHyp.Last().X, "boot-instances")
		b.ReportMetric(cloneHyp.Last().X, "clone-instances")
		b.ReportMetric(cloneHyp.Last().X/bootHyp.Last().X, "density-x")
	}
}

// BenchmarkFig6ForkVsClone regenerates Figure 6 (fork/clone duration over
// the memory sweep) and reports the 1 GiB second fork/clone durations.
func BenchmarkFig6ForkVsClone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig6(bench.Fig6Config{
			SizesMB: []int{1, 4, 16, 64, 256, 1024}, Repetitions: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		fork2, _ := fig.SeriesByName("process 2nd fork")
		clone2, _ := fig.SeriesByName("Unikraft 2nd clone")
		b.ReportMetric(fork2.Last().Y, "fork2-1GiB-ms")
		b.ReportMetric(clone2.Last().Y, "clone2-1GiB-ms")
	}
}

// BenchmarkFig7NginxThroughput regenerates Figure 7 and reports the
// 4-worker throughputs.
func BenchmarkFig7NginxThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig7(bench.Fig7Config{
			MaxWorkers: 4, Repetitions: 10, RequestsPerRun: 40000, ConnsPerWorker: 400,
		})
		if err != nil {
			b.Fatal(err)
		}
		proc, _ := fig.SeriesByName("nginx processes")
		clone, _ := fig.SeriesByName("nginx clones")
		b.ReportMetric(proc.Last().Y, "proc-req/s")
		b.ReportMetric(clone.Last().Y, "clone-req/s")
	}
}

// BenchmarkFig8RedisSave regenerates Figure 8 up to 100k keys and reports
// the second fork/clone times there.
func BenchmarkFig8RedisSave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig8(bench.Fig8Config{
			KeyCounts: []int{0, 100, 10000, 100000}, ValueSize: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		fork, _ := fig.SeriesByName("VM process fork")
		clone, _ := fig.SeriesByName("Unikraft clone")
		save, _ := fig.SeriesByName("Unikraft save")
		b.ReportMetric(fork.Last().Y, "fork-ms")
		b.ReportMetric(clone.Last().Y, "clone-ms")
		b.ReportMetric(save.Last().Y, "save-ms")
	}
}

// BenchmarkFig9Fuzzing regenerates Figure 9 over 30 virtual seconds and
// reports the executions/second of the main series.
func BenchmarkFig9Fuzzing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := bench.DefaultFig9()
		cfg.Duration = 30 * vclock.Duration(time.Second)
		fig, err := bench.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		report := func(name, metric string) {
			s, ok := fig.SeriesByName(name)
			if !ok || len(s.Points) == 0 {
				b.Fatalf("missing %q", name)
			}
			sum := 0.0
			for _, p := range s.Points {
				sum += p.Y
			}
			b.ReportMetric(sum/float64(len(s.Points)), metric)
		}
		report("Unikraft+cloning (KFX+AFL)", "clone-exec/s")
		report("Linux process (AFL)", "process-exec/s")
		report("Linux kernel module baseline (KFX+AFL)", "module-exec/s")
	}
}

// BenchmarkFig10FaaSMemory regenerates Figure 10 and reports the final
// memory footprints.
func BenchmarkFig10FaaSMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig10(bench.FaaSConfig{})
		if err != nil {
			b.Fatal(err)
		}
		cont, _ := fig.SeriesByName("containers")
		uni, _ := fig.SeriesByName("unikernels")
		b.ReportMetric(cont.Last().Y, "containers-MB")
		b.ReportMetric(uni.Last().Y, "unikernels-MB")
	}
}

// BenchmarkFig11FaaSReaction regenerates Figure 11 and reports the served
// fraction of the offered load.
func BenchmarkFig11FaaSReaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig11(bench.FaaSConfig{})
		if err != nil {
			b.Fatal(err)
		}
		cont, _ := fig.SeriesByName("containers")
		uni, _ := fig.SeriesByName("unikernels")
		b.ReportMetric(cont.Last().Y, "containers-req/s")
		b.ReportMetric(uni.Last().Y, "unikernels-req/s")
	}
}

// --- Ablations (DESIGN.md §5) ---

// cloneOnce boots a parent guest on a platform built by mk and measures
// one warm clone (the second, past the xencloned cache warmup).
func cloneOnce(b *testing.B, opts core.Options) vclock.Duration {
	b.Helper()
	if opts.HV.MemoryBytes == 0 {
		opts.HV = hv.Config{MemoryBytes: 1 << 30, PerDomainOverheadFrames: 90}
	}
	opts.SkipNameCheck = true
	p := core.NewPlatform(opts)
	rec, err := p.Boot(benchGuest("ablation-parent"), nil)
	if err != nil {
		b.Fatal(err)
	}
	k, err := guest.Boot(p, rec, guest.FlavorMiniOS, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := k.Fork(1, nil, nil); err != nil { // cache warmup
		b.Fatal(err)
	}
	meter := p.NewMeter()
	if _, err := k.Fork(1, nil, meter); err != nil {
		b.Fatal(err)
	}
	return meter.Elapsed()
}

// BenchmarkAblationXsCloneVsDeepCopy quantifies the xs_clone request
// (Fig. 4's built-in ablation) on a single warm clone.
func BenchmarkAblationXsCloneVsDeepCopy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fast := cloneOnce(b, core.Options{})
		slow := cloneOnce(b, core.Options{Cloned: cloned.Options{UseDeepCopy: true}})
		b.ReportMetric(fast.Seconds()*1e3, "xs_clone-ms")
		b.ReportMetric(slow.Seconds()*1e3, "deep-copy-ms")
	}
}

// BenchmarkAblationXenclonedCache quantifies the parent-info cache: the
// first clone (cold) versus the second (warm).
func BenchmarkAblationXenclonedCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := core.NewPlatform(core.Options{
			HV:            hv.Config{MemoryBytes: 1 << 30, PerDomainOverheadFrames: 90},
			SkipNameCheck: true,
		})
		rec, err := p.Boot(benchGuest("cache-parent"), nil)
		if err != nil {
			b.Fatal(err)
		}
		k, err := guest.Boot(p, rec, guest.FlavorMiniOS, nil)
		if err != nil {
			b.Fatal(err)
		}
		cold := p.NewMeter()
		r1, err := k.Fork(1, nil, cold)
		if err != nil {
			b.Fatal(err)
		}
		warm := p.NewMeter()
		r2, err := k.Fork(1, nil, warm)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r1.Clone.SecondStage.Seconds()*1e3, "cold-2nd-stage-ms")
		b.ReportMetric(r2.Clone.SecondStage.Seconds()*1e3, "warm-2nd-stage-ms")
	}
}

// BenchmarkAblationNetRingPolicy compares copying the network rings on
// clone (the paper's policy) against handing the child fresh rings: the
// fresh policy is cheaper but loses the in-flight packets the paper's
// design preserves.
func BenchmarkAblationNetRingPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nb := devices.NewNetBackend(devices.NewUdevQueue())
		parent := nb.CreateVif(3, 0, netsim.IP{10, 0, 0, 3}, nil)
		parent.Deliver(netsim.Packet{SrcPort: 1, Payload: []byte("inflight")})

		copyMeter := vclock.NewMeter(nil)
		cv := parent.Clone(7, copyMeter)
		if _, ok := cv.GuestReceive(); !ok {
			b.Fatal("copy policy lost the in-flight packet")
		}
		b.ReportMetric(copyMeter.Elapsed().Seconds()*1e3, "copy-rings-ms")
		// Fresh policy: the cost floor without the per-page copies.
		b.ReportMetric((copyMeter.Elapsed()-copyMeter.Costs().PageCopy*vclock.Duration(cv.PrivatePages())).Seconds()*1e3, "fresh-rings-ms")
	}
}

// BenchmarkAblation9pfsBackend compares the shared family backend process
// (Nephele's choice) against launching one backend process per clone.
func BenchmarkAblation9pfsBackend(b *testing.B) {
	const clones = 64
	for i := 0; i < b.N; i++ {
		fs := devices.NewHostFS()
		fs.WriteFile("export/f", []byte("x"))

		// Shared process: one launch + QMP clone per child.
		shared := devices.NewNinePBackend(fs)
		sm := vclock.NewMeter(nil)
		shared.Launch(1, "/export", sm)
		if p, err := shared.Process(1); err == nil {
			p.Open(1, "/f", false)
		}
		for c := uint32(2); c < 2+clones; c++ {
			if err := shared.Clone(1, c, sm); err != nil {
				b.Fatal(err)
			}
		}
		// Per-clone processes: a full backend launch each.
		perClone := devices.NewNinePBackend(fs)
		pm := vclock.NewMeter(nil)
		perClone.Launch(1, "/export", pm)
		for c := uint32(2); c < 2+clones; c++ {
			perClone.Launch(c, "/export", pm)
		}
		b.ReportMetric(sm.Elapsed().Seconds()*1e3, "shared-ms")
		b.ReportMetric(pm.Elapsed().Seconds()*1e3, "per-clone-ms")
		b.ReportMetric(float64(shared.ProcessCount()), "shared-procs")
		b.ReportMetric(float64(perClone.ProcessCount()), "per-clone-procs")
	}
}

// BenchmarkAblationSwitch compares bond versus OVS-group clone-interface
// aggregation under the Fig. 7 flow workload.
func BenchmarkAblationSwitch(b *testing.B) {
	mkSinks := func(n int) []*countEndpoint {
		out := make([]*countEndpoint, n)
		for i := range out {
			out[i] = &countEndpoint{mac: netsim.MACForDomain(uint32(i + 1))}
		}
		return out
	}
	const flows = 4096
	for i := 0; i < b.N; i++ {
		bond := netsim.NewBond("bond0")
		for _, s := range mkSinks(4) {
			bond.Enslave(s)
		}
		group := netsim.NewOVSGroup("g0")
		for _, s := range mkSinks(4) {
			group.AddBucket(s)
		}
		for f := 0; f < flows; f++ {
			pkt := netsim.Packet{SrcPort: uint16(f), DstPort: 80}
			bond.Deliver(pkt)
			group.Deliver(pkt)
		}
	}
	b.ReportMetric(float64(flows), "flows")
}

type countEndpoint struct {
	mac netsim.MAC
	n   int
}

func (c *countEndpoint) HWAddr() netsim.MAC      { return c.mac }
func (c *countEndpoint) Deliver(p netsim.Packet) { c.n++ }

// BenchmarkAblationNameCheck quantifies vanilla xl's name-uniqueness scan
// (the LightVM superlinear effect the paper disables for fairness).
func BenchmarkAblationNameCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		boot200 := func(skip bool) vclock.Duration {
			p := core.NewPlatform(core.Options{
				HV:            hv.Config{MemoryBytes: 2 << 30, MaxEventPorts: 32, GrantEntries: 32, PerDomainOverheadFrames: 16},
				SkipNameCheck: skip,
			})
			var last vclock.Duration
			for j := 0; j < 200; j++ {
				meter := p.NewMeter()
				if _, err := p.Boot(benchGuest(fmt.Sprintf("vm-%d", j)), meter); err != nil {
					b.Fatal(err)
				}
				last = meter.Elapsed()
			}
			return last
		}
		with := boot200(false)
		without := boot200(true)
		b.ReportMetric(with.Seconds()*1e3, "with-check-ms")
		b.ReportMetric(without.Seconds()*1e3, "without-check-ms")
	}
}

// BenchmarkKVMPortClone exercises the §5.3 KVM port: the clone advantage
// must survive the platform swap (clone ≪ fresh-VM creation on KVM too).
func BenchmarkKVMPortClone(b *testing.B) {
	h := kvm.NewHost(8 << 30)
	h.AttachDaemon()
	vm, err := h.CreateVM("target", 1024, netsim.IP{192, 168, 122, 10}, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.EnableCloneCap(vm.ID, 1<<20); err != nil {
		b.Fatal(err)
	}
	createMeter := vclock.NewMeter(nil)
	if _, err := h.CreateVM("fresh", 1024, netsim.IP{192, 168, 122, 11}, createMeter); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last vclock.Duration
	for i := 0; i < b.N; i++ {
		meter := vclock.NewMeter(nil)
		if _, err := h.Clone(vm.ID, meter); err != nil {
			b.Fatal(err)
		}
		last = meter.Elapsed()
	}
	b.ReportMetric(last.Seconds()*1e3, "kvm-clone-ms")
	b.ReportMetric(createMeter.Elapsed().Seconds()*1e3, "kvm-create-ms")
}

// BenchmarkCloneOp measures the raw CLONEOP first stage for a 4 MB guest
// (§6.1 reports ~1 ms).
func BenchmarkCloneOp(b *testing.B) {
	p := core.NewPlatform(core.Options{
		HV:            hv.Config{MemoryBytes: 8 << 30, MaxEventPorts: 32, GrantEntries: 32, PerDomainOverheadFrames: 16},
		SkipNameCheck: true,
	})
	rec, err := p.Boot(benchGuest("raw-parent"), nil)
	if err != nil {
		b.Fatal(err)
	}
	k, err := guest.Boot(p, rec, guest.FlavorMiniOS, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var firstStage vclock.Duration
	for i := 0; i < b.N; i++ {
		res, err := k.Fork(1, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		firstStage = res.Clone.FirstStage
		// Tear the clone down so arbitrarily large b.N does not exhaust
		// the simulated machine (the virtual metric is unaffected).
		if err := p.Destroy(res.Children[0].Dom, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(firstStage.Seconds()*1e3, "first-stage-ms")
}

// BenchmarkRedisBGSave measures the end-to-end snapshot save on a
// unikernel (10k keys).
func BenchmarkRedisBGSave(b *testing.B) {
	p := core.NewPlatform(core.Options{
		HV:            hv.Config{MemoryBytes: 8 << 30, MaxEventPorts: 64, GrantEntries: 64, PerDomainOverheadFrames: 90},
		SkipNameCheck: true,
		Cloned:        cloned.Options{SkipNetworkDevices: true},
	})
	cfg := toolstack.DomainConfig{
		Name: "redis-bench", MemoryMB: 64, VCPUs: 1, MaxClones: 1 << 20,
		NinePFS: []toolstack.NinePConfig{{Export: "/export", Tag: "rootfs"}},
	}
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	k, err := guest.Boot(p, rec, guest.FlavorUnikraft, nil)
	if err != nil {
		b.Fatal(err)
	}
	r, err := apps.NewRedis(apps.NewKernelHost(k), 4096)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.MassInsert(10000, 64, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.BGSave(fmt.Sprintf("dump-%d.rdb", i), p.NewMeter())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ForkTime.Seconds()*1e3, "fork-ms")
		b.ReportMetric(res.SerializeTime.Seconds()*1e3, "save-ms")
	}
}

// cachedRestoreRig boots a template guest of memoryMB with every page
// dirtied (a warmed-up runtime leaves little of its memory pristine),
// saves it, and returns the platform plus the image. The pool is sized so
// the cache, the template image, and one restored child coexist at 256 MB.
func cachedRestoreRig(b *testing.B, memoryMB int) (*core.Platform, *toolstack.Image) {
	b.Helper()
	p := core.NewPlatform(core.Options{
		HV:            hv.Config{MemoryBytes: 2 << 30, PerDomainOverheadFrames: 16},
		SkipNameCheck: true,
	})
	cfg := toolstack.DomainConfig{
		Name: "cache-template", MemoryMB: memoryMB, VCPUs: 1, MaxClones: 1 << 20,
	}
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	dom, err := p.HV.Domain(rec.ID)
	if err != nil {
		b.Fatal(err)
	}
	sp := dom.Space()
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	for pfn := 0; pfn < cfg.Pages()-3; pfn++ {
		payload[0] = byte(pfn)
		if err := sp.Write(mem.PFN(pfn), 0, payload, nil); err != nil {
			b.Fatal(err)
		}
	}
	img, err := p.XL.Save(rec.ID, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Destroy(rec.ID, nil); err != nil {
		b.Fatal(err)
	}
	return p, img
}

// BenchmarkCachedRestore compares the copying restore (cold) with the
// content-addressed cached restore (warm) of the same 256 MB image, 25%
// of it dirty. The warm path materializes the child by COW-sharing the
// cache's resident frames instead of copying pages, so its wall-clock
// ns/op is the gated warm-restore-speedup metric (benchdiff -warm-min).
func BenchmarkCachedRestore(b *testing.B) {
	const memoryMB = 256
	b.Run("mode=cold", func(b *testing.B) {
		p, img := cachedRestoreRig(b, memoryMB)
		b.ResetTimer()
		var lat vclock.Duration
		for i := 0; i < b.N; i++ {
			meter := p.NewMeter()
			rec, err := p.XL.Restore(img, fmt.Sprintf("cold-%d", i), meter)
			if err != nil {
				b.Fatal(err)
			}
			lat = meter.Elapsed()
			if err := p.Destroy(rec.ID, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(lat.Seconds()*1e3, "restore-ms")
	})
	b.Run("mode=warm", func(b *testing.B) {
		p, img := cachedRestoreRig(b, memoryMB)
		store := p.NewImageStore(0)
		// Populate the cache once; every timed iteration is a hit.
		if err := store.Insert(img, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var lat vclock.Duration
		for i := 0; i < b.N; i++ {
			meter := p.NewMeter()
			rec, served, err := p.XL.RestoreCachedOp(obs.Ctx(meter), store, img, fmt.Sprintf("warm-%d", i))
			if err != nil {
				b.Fatal(err)
			}
			if !served {
				b.Fatal("warm iteration missed the cache")
			}
			lat = meter.Elapsed()
			if err := p.Destroy(rec.ID, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(lat.Seconds()*1e3, "restore-ms")
	})
}

// BenchmarkSandboxFleet spawns a 16-sandbox fleet from the snapshot cache
// (one cold restore, fifteen warm) with per-sandbox disk commit, reporting
// the warm p50 spawn latency.
func BenchmarkSandboxFleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Sandbox(bench.SandboxConfig{
			FleetSizes: []int{16}, MemoryMB: 16, DirtyPages: 1024, DirtySectors: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		warm, _ := fig.SeriesByName("warm-restore-p50-ms")
		cold, _ := fig.SeriesByName("cold-restore-ms")
		b.ReportMetric(warm.First().Y, "warm-p50-ms")
		b.ReportMetric(cold.First().Y, "cold-ms")
	}
}
