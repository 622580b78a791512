package core

import (
	"fmt"
	"testing"

	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

// bootParents boots n independent guests, each with its own vif.
func bootParents(t *testing.T, p *Platform, n int) []DomID {
	t.Helper()
	ids := make([]DomID, n)
	for i := range ids {
		cfg := toolstack.DomainConfig{
			Name:      fmt.Sprintf("svc-%d", i),
			MemoryMB:  4,
			VCPUs:     1,
			MaxClones: 100,
			Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, byte(i + 1), 2}}},
		}
		rec, err := p.Boot(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = rec.ID
	}
	return ids
}

// TestCloneManyMultiParent runs one multi-parent scheduling round through
// the whole two-stage pipeline: four independent parents each fork two
// children in a single round, and every child comes out fully adopted.
func TestCloneManyMultiParent(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	parents := bootParents(t, p, 4)

	specs := make([]CloneSpec, len(parents))
	for i, id := range parents {
		specs[i] = CloneSpec{Caller: id, Parent: id, Count: 2}
	}
	results, err := p.CloneOp(obs.OpCtx{}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("results = %d, want %d", len(results), len(specs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if len(res.Children) != 2 || len(res.Failed) != 0 {
			t.Fatalf("request %d: %d children, %d failed", i, len(res.Children), len(res.Failed))
		}
		if res.FirstStage <= 0 || res.SecondStage <= 0 || res.Total < res.FirstStage {
			t.Fatalf("request %d timings: first=%v second=%v total=%v",
				i, res.FirstStage, res.SecondStage, res.Total)
		}
		for _, k := range res.Children {
			if !p.HV.SameFamily(parents[i], k) {
				t.Fatalf("child %d not in family of %d", k, parents[i])
			}
			if _, err := p.XL.Record(k); err != nil {
				t.Fatalf("child %d not adopted by toolstack: %v", k, err)
			}
			cd, err := p.HV.Domain(k)
			if err != nil {
				t.Fatal(err)
			}
			if cd.Paused() {
				t.Fatalf("child %d paused after completed round", k)
			}
			if total, ok := p.CloneTotal(k); !ok || total <= 0 {
				t.Fatalf("child %d clone total not recorded", k)
			}
		}
		pd, _ := p.HV.Domain(parents[i])
		if pd.Paused() {
			t.Fatalf("parent %d still paused after round", parents[i])
		}
	}
}

// TestCloneManyVirtualTimeMatchesClone: a parent's first-stage virtual
// time inside a multi-parent round equals what a single-spec CloneOp
// reports — the golden-series determinism argument at the platform level.
func TestCloneManyVirtualTimeMatchesClone(t *testing.T) {
	boot := func() (*Platform, []DomID) {
		p := smallPlatform(Options{SkipNameCheck: true})
		return p, bootParents(t, p, 2)
	}

	solo, soloParents := boot()
	soloResAll, err := solo.CloneOp(obs.OpCtx{}, CloneSpec{Caller: soloParents[0], Parent: soloParents[0], Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	soloRes := soloResAll[0]

	batch, batchParents := boot()
	results, err := batch.CloneOp(obs.OpCtx{},
		CloneSpec{Caller: batchParents[0], Parent: batchParents[0], Count: 2},
		CloneSpec{Caller: batchParents[1], Parent: batchParents[1], Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for i, res := range results {
		if res.FirstStage != soloRes.FirstStage {
			t.Errorf("request %d FirstStage = %v, solo Clone = %v", i, res.FirstStage, soloRes.FirstStage)
		}
	}
}

// TestCloneManyPartialAdmission: a request targeting a domain that cannot
// clone fails alone; its neighbours' rounds complete.
func TestCloneManyPartialAdmission(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	parents := bootParents(t, p, 2)
	cfg := toolstack.DomainConfig{Name: "noclone", MemoryMB: 4, VCPUs: 1}
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	results, err := p.CloneOp(obs.OpCtx{},
		CloneSpec{Caller: parents[0], Parent: parents[0], Count: 1},
		CloneSpec{Caller: rec.ID, Parent: rec.ID, Count: 1},
		CloneSpec{Caller: parents[1], Parent: parents[1], Count: 1})
	if err == nil {
		t.Fatal("round with failed admission reported no error")
	}
	if results[1].Err == nil {
		t.Fatal("no-clone request succeeded")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("request %d: %v", i, results[i].Err)
		}
		if len(results[i].Children) != 1 {
			t.Fatalf("request %d children = %d", i, len(results[i].Children))
		}
	}
}
