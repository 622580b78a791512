// Command benchdiff compares `go test -bench` output against the numbers
// recorded in BENCH_baseline.json and exits non-zero when a benchmark's
// wall-clock ns/op regresses beyond the threshold. It stands in for
// benchstat in CI, where only the standard toolchain is available.
//
// Usage:
//
//	go test -bench . | go run ./cmd/benchdiff -baseline BENCH_baseline.json
//	go test -bench . | go run ./cmd/benchdiff -update   # record new numbers
//	go run ./cmd/benchdiff -baseline BENCH_baseline.json bench.out
//
// Only benchmarks present in both the baseline and the input are compared;
// -update rewrites the baseline's "benchmarks" section from the input and
// leaves everything else (notes, seed numbers) untouched.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type record struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

type baseline struct {
	Note      string             `json:"note,omitempty"`
	Generated string             `json:"generated,omitempty"`
	Seed      map[string]float64 `json:"seed_ns_per_op,omitempty"`
	// PreShard preserves the single-mutex pool's numbers (the baseline
	// the sharding work is measured against); -update never touches it.
	PreShard map[string]float64 `json:"pre_shard_ns_per_op,omitempty"`
	// PreHash preserves RemoteClone's numbers from before the word-at-a-
	// time image hash and slab-backed snapshots; -update never touches it.
	PreHash map[string]float64 `json:"pre_hash_ns_per_op,omitempty"`
	// PreZeroCopy preserves RemoteClone's numbers from before snapshots
	// and cache inserts shared frame buffers; -update never touches it.
	PreZeroCopy map[string]float64 `json:"pre_zerocopy_ns_per_op,omitempty"`
	Benchmarks  map[string]record  `json:"benchmarks"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkSpaceClone/first-4MB-8   3   15516 ns/op   16576 B/op   4 allocs/op
//
// The trailing -N is the GOMAXPROCS suffix. It is stripped from the
// recorded name so baselines do not depend on the machine's core count,
// but kept aside: when the input holds the same benchmark at several -cpu
// values (go test -cpu 1,8), the per-benchmark parallel speedup is
// reported alongside the comparison.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([\d.]+) ns/op(?:.*?\s([\d.]+) allocs/op)?`)

// parseBench reads benchmark lines, returning one record per stripped name
// (the lowest -cpu run, so numbers stay comparable with baselines recorded
// on any core count) plus the per-cpu ns/op map for the speedup report.
// When the input holds the same benchmark several times at the same -cpu
// value (go test -count N), the MINIMUM ns/op wins: on a shared runner the
// minimum of a few repetitions is the least load-contaminated sample, which
// is what makes a tight regression threshold usable there at all.
func parseBench(r io.Reader) (map[string]record, map[string]map[int]float64, error) {
	out := make(map[string]record)
	cpus := make(map[string]map[int]float64)
	low := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		cpu := 1
		if m[2] != "" {
			cpu, _ = strconv.Atoi(m[2])
		}
		name := m[1]
		if cpus[name] == nil {
			cpus[name] = make(map[int]float64)
		}
		if v, ok := cpus[name][cpu]; !ok || ns < v {
			cpus[name][cpu] = ns
		}
		if prev, seen := low[name]; seen {
			if prev < cpu {
				continue
			}
			if prev == cpu && out[name].NsPerOp <= ns {
				continue
			}
		}
		low[name] = cpu
		rec := record{NsPerOp: ns}
		if m[4] != "" {
			rec.AllocsPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		out[name] = rec
	}
	return out, cpus, sc.Err()
}

// reportSpeedups prints ns/op ratios between the lowest and highest -cpu
// runs of every benchmark measured at more than one GOMAXPROCS (e.g.
// -cpu 1,8): >1 means the benchmark got faster with more cores.
func reportSpeedups(cpus map[string]map[int]float64) {
	names := make([]string, 0, len(cpus))
	for name, byCPU := range cpus {
		if len(byCPU) > 1 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Println("parallel speedup (lowest vs highest -cpu):")
	for _, name := range names {
		byCPU := cpus[name]
		lo, hi := -1, -1
		for c := range byCPU {
			if lo == -1 || c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		fmt.Printf("%-55s cpu=%-2d %14.0f ns/op  cpu=%-2d %14.0f ns/op  %.2fx\n",
			name, lo, byCPU[lo], hi, byCPU[hi], byCPU[lo]/byCPU[hi])
	}
}

// reportSchedRatios pairs benchmarks whose names differ only in
// sched=fixed vs sched=affinity and prints the affinity speedup (fixed
// ns/op over affinity ns/op) at every GOMAXPROCS both sides were measured
// at. The return value is the best speedup observed at any pair's highest
// common cpu count — the headline number the -sched-min gate checks — or
// zero when the input holds no such pairs.
func reportSchedRatios(cpus map[string]map[int]float64) float64 {
	var names []string
	for name := range cpus {
		if strings.Contains(name, "sched=affinity") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	best := 0.0
	printed := false
	for _, name := range names {
		aff := cpus[name]
		fix, ok := cpus[strings.Replace(name, "sched=affinity", "sched=fixed", 1)]
		if !ok {
			continue
		}
		var common []int
		for c := range aff {
			if _, ok := fix[c]; ok {
				common = append(common, c)
			}
		}
		if len(common) == 0 {
			continue
		}
		sort.Ints(common)
		if !printed {
			fmt.Println("affinity speedup (sched=fixed ns/op over sched=affinity ns/op):")
			printed = true
		}
		label := strings.Replace(name, "-sched=affinity", "", 1)
		for _, c := range common {
			fmt.Printf("%-55s cpu=%-2d fixed %14.0f ns/op  affinity %14.0f ns/op  %.2fx\n",
				label, c, fix[c], aff[c], fix[c]/aff[c])
		}
		hi := common[len(common)-1]
		if r := fix[hi] / aff[hi]; r > best {
			best = r
		}
	}
	return best
}

// reportWarmRatios pairs benchmarks whose names differ only in mode=cold
// vs mode=warm and prints the cached-restore speedup (cold ns/op over warm
// ns/op) at every GOMAXPROCS both sides were measured at. The return value
// is the best speedup observed at any pair's highest common cpu count —
// the headline number the -warm-min gate checks — or zero when the input
// holds no such pairs.
func reportWarmRatios(cpus map[string]map[int]float64) float64 {
	var names []string
	for name := range cpus {
		if strings.Contains(name, "mode=warm") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	best := 0.0
	printed := false
	for _, name := range names {
		warm := cpus[name]
		cold, ok := cpus[strings.Replace(name, "mode=warm", "mode=cold", 1)]
		if !ok {
			continue
		}
		var common []int
		for c := range warm {
			if _, ok := cold[c]; ok {
				common = append(common, c)
			}
		}
		if len(common) == 0 {
			continue
		}
		sort.Ints(common)
		if !printed {
			fmt.Println("cached-restore speedup (mode=cold ns/op over mode=warm ns/op):")
			printed = true
		}
		label := strings.Replace(name, "/mode=warm", "", 1)
		for _, c := range common {
			fmt.Printf("%-55s cpu=%-2d cold %14.0f ns/op  warm %14.0f ns/op  %.2fx\n",
				label, c, cold[c], warm[c], cold[c]/warm[c])
		}
		hi := common[len(common)-1]
		if r := cold[hi] / warm[hi]; r > best {
			best = r
		}
	}
	return best
}

// reportXferRatios pairs benchmarks whose names differ only in xfer=cold
// vs xfer=warm and prints the remote-clone dedup speedup (cold ns/op over
// warm ns/op) at every GOMAXPROCS both sides were measured at. The return
// value is the best speedup observed at any pair's highest common cpu
// count — the number the -xfer-min gate checks — or zero when the input
// holds no such pairs.
func reportXferRatios(cpus map[string]map[int]float64) float64 {
	var names []string
	for name := range cpus {
		if strings.Contains(name, "xfer=warm") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	best := 0.0
	printed := false
	for _, name := range names {
		warm := cpus[name]
		cold, ok := cpus[strings.Replace(name, "xfer=warm", "xfer=cold", 1)]
		if !ok {
			continue
		}
		var common []int
		for c := range warm {
			if _, ok := cold[c]; ok {
				common = append(common, c)
			}
		}
		if len(common) == 0 {
			continue
		}
		sort.Ints(common)
		if !printed {
			fmt.Println("remote-clone dedup speedup (xfer=cold ns/op over xfer=warm ns/op):")
			printed = true
		}
		label := strings.Replace(name, "/xfer=warm", "", 1)
		for _, c := range common {
			fmt.Printf("%-55s cpu=%-2d cold %14.0f ns/op  warm %14.0f ns/op  %.2fx\n",
				label, c, cold[c], warm[c], cold[c]/warm[c])
		}
		hi := common[len(common)-1]
		if r := cold[hi] / warm[hi]; r > best {
			best = r
		}
	}
	return best
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline file to compare against / update")
	threshold := flag.Float64("threshold", 0.20, "relative ns/op regression that fails the run (0.20 = +20%)")
	update := flag.Bool("update", false, "rewrite the baseline's benchmark numbers from the input instead of comparing")
	schedMin := flag.Float64("sched-min", 0, "minimum affinity speedup (best sched=fixed / sched=affinity pair at its highest -cpu); 0 disables the gate")
	warmMin := flag.Float64("warm-min", 0, "minimum cached-restore speedup (best mode=cold / mode=warm pair at its highest -cpu); 0 disables the gate")
	xferMin := flag.Float64("xfer-min", 0, "minimum remote-clone dedup speedup (best xfer=cold / xfer=warm pair at its highest -cpu); 0 disables the gate")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	got, cpus, err := parseBench(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines in input")
		os.Exit(2)
	}

	var base baseline
	if raw, err := os.ReadFile(*baselinePath); err == nil {
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", *baselinePath, err)
			os.Exit(2)
		}
	} else if !*update {
		fmt.Fprintf(os.Stderr, "benchdiff: %v (run with -update to create)\n", err)
		os.Exit(2)
	}

	if *update {
		if base.Benchmarks == nil {
			base.Benchmarks = make(map[string]record)
		}
		for name, rec := range got {
			base.Benchmarks[name] = rec
		}
		out, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("benchdiff: recorded %d benchmarks into %s\n", len(got), *baselinePath)
		return
	}

	names := make([]string, 0, len(got))
	for name := range got {
		if _, ok := base.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmarks in common with the baseline")
		os.Exit(2)
	}

	regressions := 0
	for _, name := range names {
		b, g := base.Benchmarks[name], got[name]
		delta := (g.NsPerOp - b.NsPerOp) / b.NsPerOp
		status := "ok"
		if delta > *threshold {
			status = "REGRESSION"
			regressions++
		}
		allocs := ""
		// Allocation gate: compared only when both sides recorded allocs.
		// The relative threshold plus a +2 absolute grace keeps tiny counts
		// (1-4 allocs/op, where one alloc is +25%) from false-positiving,
		// while still catching a hot path growing per-op garbage — the
		// observability layer's disabled-sink contract.
		if b.AllocsPerOp > 0 && g.AllocsPerOp > 0 {
			allocs = fmt.Sprintf("  %6.0f -> %6.0f allocs/op", b.AllocsPerOp, g.AllocsPerOp)
			if g.AllocsPerOp > b.AllocsPerOp*(1+*threshold)+2 {
				status = "ALLOC REGRESSION"
				regressions++
			}
		}
		fmt.Printf("%-55s %14.0f -> %14.0f ns/op  %+6.1f%%%s  %s\n", name, b.NsPerOp, g.NsPerOp, delta*100, allocs, status)
	}
	reportSpeedups(cpus)
	bestSched := reportSchedRatios(cpus)
	if *schedMin > 0 && bestSched < *schedMin {
		fmt.Fprintf(os.Stderr, "benchdiff: best affinity speedup %.2fx below required %.2fx\n", bestSched, *schedMin)
		os.Exit(1)
	}
	bestWarm := reportWarmRatios(cpus)
	if *warmMin > 0 && bestWarm < *warmMin {
		fmt.Fprintf(os.Stderr, "benchdiff: best cached-restore speedup %.2fx below required %.2fx\n", bestWarm, *warmMin)
		os.Exit(1)
	}
	bestXfer := reportXferRatios(cpus)
	if *xferMin > 0 && bestXfer < *xferMin {
		fmt.Fprintf(os.Stderr, "benchdiff: best remote-clone dedup speedup %.2fx below required %.2fx\n", bestXfer, *xferMin)
		os.Exit(1)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d of %d benchmarks regressed more than %.0f%%\n",
			regressions, len(names), *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d benchmarks within %.0f%% of baseline\n", len(names), *threshold*100)
}
