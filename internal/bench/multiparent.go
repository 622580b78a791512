package bench

import (
	"fmt"
	"time"

	"nephele/internal/core"
	"nephele/internal/hv"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

// MultiParentConfig tunes the multi-parent clone throughput measurement —
// the FaaS/NGINX autoscaling scenario (§7), where many independent
// services fork at once and the pool lock, not single-clone latency, is
// what gates scale-out.
type MultiParentConfig struct {
	// Parents sweeps the number of independent parents forking per round.
	Parents []int
	// ClonesEach is how many children every parent forks per round.
	ClonesEach int
	// Rounds is the number of scheduling rounds measured per point.
	Rounds int
}

// DefaultMultiParent returns the reporting configuration: 1/2/4/8 parents,
// one child each, enough rounds to steady the wall-clock numbers.
func DefaultMultiParent() MultiParentConfig {
	return MultiParentConfig{Parents: []int{1, 2, 4, 8}, ClonesEach: 1, Rounds: 20}
}

// MultiParent measures end-to-end multi-parent round throughput: for each
// parent count P it boots P independent guests on one machine, then runs
// scheduling rounds in which every parent forks ClonesEach children in a
// single multi-spec core.Platform.CloneOp call (batched first stage, one
// cloned.Serve), and the children are destroyed between rounds. The
// figure reports wall-clock clones/sec per parent count, plus the virtual
// first-stage latency per parent — flat across P, since batching charges
// each parent's meter exactly as a solo clone would.
func MultiParent(cfg MultiParentConfig) (*Figure, error) {
	if len(cfg.Parents) == 0 {
		cfg = DefaultMultiParent()
	}
	if cfg.ClonesEach <= 0 {
		cfg.ClonesEach = 1
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	fig := &Figure{
		ID:     "multiparent",
		Title:  "Multi-parent clone round throughput",
		XLabel: "# parents forking concurrently",
		YLabel: "clones/sec (wall clock)",
	}
	var rate, virt Series
	rate.Name = "clones/sec (wall)"
	virt.Name = "first stage per parent (virtual ms)"

	for _, parents := range cfg.Parents {
		p := core.NewPlatform(core.Options{
			HV:            hv.Config{MemoryBytes: 2 << 30, PerDomainOverheadFrames: 90},
			SkipNameCheck: true,
		})
		ids := make([]core.DomID, parents)
		for i := range ids {
			cfg := toolstack.DomainConfig{
				Name:      fmt.Sprintf("svc-%d", i),
				MemoryMB:  4,
				VCPUs:     1,
				MaxClones: 1 << 20,
				Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, byte(i + 1), 2}}},
			}
			rec, err := p.Boot(cfg, nil)
			if err != nil {
				return nil, fmt.Errorf("multiparent boot %d: %w", i, err)
			}
			ids[i] = rec.ID
		}

		var firstStage float64
		clones := 0
		wall, err := MeasureWall(func() error {
			for round := 0; round < cfg.Rounds; round++ {
				specs := make([]core.CloneSpec, parents)
				for i, id := range ids {
					specs[i] = core.CloneSpec{Caller: id, Parent: id, Count: cfg.ClonesEach}
				}
				results, err := p.CloneOp(obs.OpCtx{}, specs...)
				if err != nil {
					return err
				}
				for _, res := range results {
					firstStage += ms(res.FirstStage)
					for _, k := range res.Children {
						clones++
						if err := p.Destroy(k, nil); err != nil {
							return err
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("multiparent %d parents: %w", parents, err)
		}
		x := float64(parents)
		rate.Points = append(rate.Points, Point{X: x, Y: float64(clones) / wall.Elapsed.Seconds()})
		virt.Points = append(virt.Points, Point{X: x, Y: firstStage / float64(parents*cfg.Rounds)})
		fig.Summary = append(fig.Summary, fmt.Sprintf(
			"%d parents: %d clones in %v wall (%.0f clones/sec), first stage %.3f ms virtual each",
			parents, clones, wall.Elapsed.Round(time.Millisecond),
			float64(clones)/wall.Elapsed.Seconds(), firstStage/float64(parents*cfg.Rounds)))
	}
	fig.Series = []Series{rate, virt}

	if len(rate.Points) > 1 {
		fig.Summary = append(fig.Summary, fmt.Sprintf(
			"throughput at %d parents is %.2fx the 1-parent rate (sharded pool + batched rounds)",
			int(rate.Last().X), rate.Last().Y/rate.First().Y))
	}
	return fig, nil
}
