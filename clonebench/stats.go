package main

import (
	"math"
	"sort"

	"nephele/internal/obs"
)

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1): the
// ceil(p*n)-th smallest value, so every reported percentile is a value
// that was actually measured. xs is not modified; an empty xs yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps float error in p*n (0.55*100 = 55.00000000000001)
	// from pushing an exact rank up by one.
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// selfTimes returns each span's wall self time: its duration minus the
// part of its interval that its children cover. startNS[i] is span i's
// wall start; the interval ends WallNS later. Children may overlap each
// other or stick out of their parent; only the covered part of the
// parent's own interval is subtracted, and each covered instant once.
func selfTimes(recs []obs.SpanRecord, startNS []int64) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make([][]iv, len(recs))
	for i, r := range recs {
		if r.Parent > 0 {
			p := r.Parent - 1
			kids[p] = append(kids[p], iv{startNS[i], startNS[i] + r.WallNS})
		}
	}
	self := make([]int64, len(recs))
	for i, r := range recs {
		lo, hi := startNS[i], startNS[i]+r.WallNS
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].lo < cs[b].lo })
		covered, reach := int64(0), lo
		for _, c := range cs {
			a, b := max(c.lo, reach), min(c.hi, hi)
			if b > a {
				covered += b - a
				reach = b
			}
		}
		self[i] = r.WallNS - covered
	}
	return self
}
