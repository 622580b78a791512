package core

import (
	"errors"
	"fmt"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// Cross-machine migration. §5.2 keeps the p2m map around precisely for
// this: "we also need a mapping for guest physical addresses to machine
// physical addresses, the p2m mapping, in order to migrate the guest to a
// different machine. p2m is used on the target machine to rebuild the
// domain page table, after which is updated with the new machine frame
// numbers." Migrate implements the stop-and-copy flavour: the domain is
// paused on the source, its configuration and memory image move to the
// target platform, the page table is rebuilt through the p2m there, and
// the source domain is destroyed.
//
// Note the paper's §8 position: clones are deliberately NOT migrated
// (moving family members apart would break page sharing), so Migrate
// refuses domains that are part of a clone family.

// Migration errors.
var (
	ErrMigrateClone = errors.New("core: refusing to migrate a clone-family member (would break page sharing)")
	ErrMigrateSelf  = errors.New("core: source and target are the same platform")
)

// MigrateResult reports one completed migration. The embedded OpResult
// carries the fields shared with clones: Children[0] is the domain's ID on
// the target machine, Total the end-to-end latency, TransferBytes the full
// image moved (stop-and-copy ships every allocated page).
type MigrateResult struct {
	OpResult
	// Downtime is the virtual time the guest was paused. Stop-and-copy
	// pauses for the whole operation, so it equals Total today.
	Downtime vclock.Duration
}

// NewID returns the domain's ID on the target machine.
func (r *MigrateResult) NewID() DomID { return r.Children[0] }

// MigrateOp moves a running domain from p to target. The returned record
// belongs to target's toolstack. ctx carries the operation's meter,
// optional trace sink and fault scope; a ctx without a trace inherits the
// sink attached with Observe. The recorded span tree is
//
//	migrate → save + restore + verify-p2m
//
// covering the stop-and-copy phases on the operation's meter.
func (p *Platform) MigrateOp(ctx obs.OpCtx, id DomID, target *Platform, name string) (*toolstack.Record, *MigrateResult, error) {
	if target == p {
		return nil, nil, ErrMigrateSelf
	}
	ctx = p.observed(ctx)
	meter := ctx.Meter()
	ctx, span := ctx.StartSpan("migrate")
	defer span.End()
	dom, err := p.HV.Domain(id)
	if err != nil {
		return nil, nil, err
	}
	// Family members stay together (§8): refuse parents with live
	// children and clones alike.
	if _, isClone := dom.Parent(); isClone || len(dom.Children()) > 0 {
		return nil, nil, fmt.Errorf("%w: domain %d", ErrMigrateClone, id)
	}
	rec, err := p.XL.Record(id)
	if err != nil {
		return nil, nil, err
	}

	start := meter.Elapsed()
	// Stop: pause the source while its memory is serialized.
	if err := p.HV.Pause(id); err != nil {
		return nil, nil, err
	}
	_, sspan := ctx.StartSpan("save")
	img, err := p.XL.Save(id, meter)
	sspan.End()
	if err != nil {
		p.HV.Unpause(id)
		return nil, nil, err
	}

	// Copy: instantiate on the target; Restore rebuilds the domain page
	// table from the image's guest-physical layout — the p2m walk — and
	// the new machine frame numbers come from the target's allocator.
	cfg := rec.Config
	if name == "" {
		name = cfg.Name
	}
	_, rspan := ctx.StartSpan("restore")
	newRec, err := target.XL.Restore(img, name, meter)
	rspan.End()
	if err != nil {
		p.HV.Unpause(id)
		return nil, nil, err
	}
	// The p2m of the migrated domain is updated with the target's frame
	// numbers; verify the mapping is complete before committing.
	newDom, err := target.HV.Domain(newRec.ID)
	if err != nil {
		return nil, nil, err
	}
	_, vspan := ctx.StartSpan("verify-p2m")
	for pfn := 0; pfn < newDom.Space().Pages(); pfn++ {
		if _, err := newDom.Space().MFNOf(mem.PFN(pfn)); err != nil {
			vspan.End()
			target.XL.Destroy(newRec.ID, nil)
			p.HV.Unpause(id)
			return nil, nil, fmt.Errorf("core: target p2m incomplete at pfn %d: %w", pfn, err)
		}
	}
	vspan.End()

	// Commit: the source instance disappears.
	if err := p.XL.Destroy(id, meter); err != nil {
		return nil, nil, err
	}
	downtime := meter.Elapsed() - start
	return newRec, &MigrateResult{
		OpResult: OpResult{
			Children:      []DomID{newRec.ID},
			Total:         downtime,
			TransferBytes: int64(img.Pages()) * mem.PageSize,
		},
		Downtime: downtime,
	}, nil
}
