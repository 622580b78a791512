package core

import (
	"errors"
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
)

func TestMigrateMovesDomainAcrossPlatforms(t *testing.T) {
	src := smallPlatform(Options{SkipNameCheck: true})
	dst := smallPlatform(Options{SkipNameCheck: true})
	rec, err := src.Boot(udpServerConfig("traveller"), nil)
	if err != nil {
		t.Fatal(err)
	}
	dom, _ := src.HV.Domain(rec.ID)
	if err := dom.Space().Write(7, 0, []byte("guest state"), nil); err != nil {
		t.Fatal(err)
	}

	meter := src.NewMeter()
	newRec, res, err := src.MigrateOp(obs.Ctx(meter), rec.ID, dst, "")
	if err != nil {
		t.Fatal(err)
	}
	// The guest state arrived intact.
	newDom, err := dst.HV.Domain(newRec.ID)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 11)
	newDom.Space().Read(7, 0, buf)
	if string(buf) != "guest state" {
		t.Fatalf("migrated state = %q", buf)
	}
	// Source gone, target registered.
	if _, err := src.XL.Record(rec.ID); err == nil {
		t.Fatal("source record survived migration")
	}
	if src.Memory().Instances != 0 || dst.Memory().Instances != 1 {
		t.Fatalf("instance counts = %d/%d", src.Memory().Instances, dst.Memory().Instances)
	}
	if res.TransferBytes != int64(rec.Config.Pages())*mem.PageSize {
		t.Fatalf("TransferBytes = %d", res.TransferBytes)
	}
	if res.NewID() != newRec.ID || len(res.Children) != 1 {
		t.Fatalf("Children = %v, want [%d]", res.Children, newRec.ID)
	}
	if res.Downtime <= 0 || res.Total != res.Downtime {
		t.Fatalf("Downtime = %v, Total = %v", res.Downtime, res.Total)
	}
	// The new domain's p2m maps target frames (all resolvable).
	if _, err := newDom.Space().MFNOf(mem.PFN(0)); err != nil {
		t.Fatal(err)
	}
	// The migrated guest keeps working on the target.
	if err := newDom.Space().Write(7, 0, []byte("after-move!"), nil); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateRefusesFamilyMembers(t *testing.T) {
	src := smallPlatform(Options{SkipNameCheck: true})
	dst := smallPlatform(Options{SkipNameCheck: true})
	rec, _ := src.Boot(udpServerConfig("parent"), nil)
	results, err := src.CloneOp(obs.OpCtx{}, CloneSpec{Caller: rec.ID, Parent: rec.ID, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	// Neither the parent (live children) nor the clone may move.
	if _, _, err := src.MigrateOp(obs.OpCtx{}, rec.ID, dst, ""); !errors.Is(err, ErrMigrateClone) {
		t.Fatalf("parent migration: %v", err)
	}
	if _, _, err := src.MigrateOp(obs.OpCtx{}, res.Children[0], dst, ""); !errors.Is(err, ErrMigrateClone) {
		t.Fatalf("clone migration: %v", err)
	}
}

func TestMigrateToSelfRefused(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	rec, _ := p.Boot(udpServerConfig("x"), nil)
	if _, _, err := p.MigrateOp(obs.OpCtx{}, rec.ID, p, ""); !errors.Is(err, ErrMigrateSelf) {
		t.Fatalf("self migration: %v", err)
	}
}

func TestMigrateNameCollisionOnTarget(t *testing.T) {
	src := smallPlatform(Options{SkipNameCheck: true})
	dst := smallPlatform(Options{SkipNameCheck: true})
	if _, err := dst.Boot(udpServerConfig("taken"), nil); err != nil {
		t.Fatal(err)
	}
	rec, _ := src.Boot(udpServerConfig("taken"), nil)
	if _, _, err := src.MigrateOp(obs.OpCtx{}, rec.ID, dst, ""); err == nil {
		t.Fatal("migration over a taken name succeeded")
	}
	// The source survives a failed migration and is resumed.
	dom, err := src.HV.Domain(rec.ID)
	if err != nil {
		t.Fatal("source lost after failed migration")
	}
	if dom.Paused() {
		t.Fatal("source left paused after failed migration")
	}
	// Retry with a fresh name works.
	if _, _, err := src.MigrateOp(obs.OpCtx{}, rec.ID, dst, "renamed"); err != nil {
		t.Fatal(err)
	}
}

func TestMigratedDomainCanCloneOnTarget(t *testing.T) {
	src := smallPlatform(Options{SkipNameCheck: true})
	dst := smallPlatform(Options{SkipNameCheck: true})
	rec, _ := src.Boot(udpServerConfig("mobile"), nil)
	newRec, _, err := src.MigrateOp(obs.OpCtx{}, rec.ID, dst, "")
	if err != nil {
		t.Fatal(err)
	}
	results, err := dst.CloneOp(obs.OpCtx{}, CloneSpec{Caller: newRec.ID, Parent: newRec.ID, Count: 1})
	if err != nil {
		t.Fatalf("clone after migration: %v", err)
	}
	res := results[0]
	if !dst.HV.SameFamily(newRec.ID, res.Children[0]) {
		t.Fatal("family relation missing on target")
	}
}

// TestMigrateOpInheritsObservedTrace: a MigrateOp whose ctx carries no
// trace records its span tree into the sink attached with Observe, the
// same way CloneOp does.
func TestMigrateOpInheritsObservedTrace(t *testing.T) {
	src := smallPlatform(Options{SkipNameCheck: true})
	dst := smallPlatform(Options{SkipNameCheck: true})
	rec, err := src.Boot(udpServerConfig("observed"), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	src.Observe(tr)
	if _, _, err := src.MigrateOp(obs.Ctx(src.NewMeter()), rec.ID, dst, ""); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	want := []struct {
		name   string
		parent int32
	}{{"migrate", 0}, {"save", 1}, {"restore", 1}, {"verify-p2m", 1}}
	if len(spans) != len(want) {
		t.Fatalf("recorded %d spans, want %d:\n%s", len(spans), len(want), tr.Render())
	}
	for i, w := range want {
		if spans[i].Name != w.name || spans[i].Parent != w.parent {
			t.Fatalf("span %d = %s (parent %d), want %s (parent %d):\n%s",
				i, spans[i].Name, spans[i].Parent, w.name, w.parent, tr.Render())
		}
	}
	if spans[0].DurV() <= 0 {
		t.Fatalf("migrate span has no virtual duration:\n%s", tr.Render())
	}
}
