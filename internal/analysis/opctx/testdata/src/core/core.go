// Package core is the opctx fixture's stand-in for the platform surface:
// exported entry points here must be OpCtx-first, and meter-first
// signatures fire unless they carry a waiver.
package core

import (
	"nephele/internal/analysis/opctx/testdata/src/obs"
	"nephele/internal/analysis/opctx/testdata/src/vclock"
)

// Platform mimics core.Platform.
type Platform struct{}

// CloneOp is the canonical OpCtx-first entry point: no finding.
func (p *Platform) CloneOp(ctx obs.OpCtx, n int) error { return nil }

// Clone is a meter-first signature without a waiver.
func (p *Platform) Clone(n int, meter *vclock.Meter) error { // want `meter-first signature in core: exported Clone takes \*vclock\.Meter`
	ctx := obs.Ctx(meter)
	return p.CloneOp(ctx, n)
}

// Boot is a meter-threading path with no OpCtx form: the waiver on the
// line above the declaration silences the finding.
//
//nephele:opctx-ok fixture: meter-threading boot path
func (p *Platform) Boot(n int, meter *vclock.Meter) error {
	return p.CloneOp(obs.Ctx(meter), n)
}

// helper is unexported: meter-first helpers stay legal.
func helper(meter *vclock.Meter) {}

// NewMeter only returns a meter: no finding.
func (p *Platform) NewMeter() *vclock.Meter { return vclock.NewMeter(nil) }
