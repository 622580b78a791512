// Package hv is the opctx fixture's stand-in for the hypervisor surface,
// which is held to the same OpCtx-first rule as core.
package hv

import (
	"nephele/internal/analysis/opctx/testdata/src/obs"
	"nephele/internal/analysis/opctx/testdata/src/vclock"
)

// Hypervisor mimics hv.Hypervisor.
type Hypervisor struct{}

// DomainDestroy is the canonical OpCtx-first form: no finding.
func (h *Hypervisor) DomainDestroy(ctx obs.OpCtx, id int) error { return nil }

// DestroyDomain is a positional meter-first twin.
func (h *Hypervisor) DestroyDomain(id int, meter *vclock.Meter) error { // want `meter-first signature in hv: exported DestroyDomain takes \*vclock\.Meter`
	return h.DomainDestroy(obs.Ctx(meter), id)
}

// resetSpace is unexported: meter-threading internals stay legal.
func resetSpace(meter *vclock.Meter) int { return 0 }
