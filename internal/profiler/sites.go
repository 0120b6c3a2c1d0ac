package profiler

// AddSiteWeighted folds one pre-aggregated site row — estimated objects
// and bytes at a rounded size, samples at a lifetime decade — into the
// profiler's histograms. It is the bridge from heapprof's site tables
// (workload × class × lifetime-decade rows with unbiased unsampled
// weights) to this package's Fig. 7/8 machinery: the unsampling already
// happened upstream, so the weights land in the histograms unscaled.
func (p *Profiler) AddSiteWeighted(sizeBytes, lifeDecadeExp int, objects, bytes, samples float64) {
	sz := float64(sizeBytes)
	if sz < 1 {
		sz = 1
	}
	p.sizeByCount.AddWeighted(sz, objects)
	p.sizeByBytes.AddWeighted(sz, bytes)
	li := lifeDecadeExp - lifeMinExp
	if li < 0 {
		li = 0
	}
	if li > lifeMaxExp-lifeMinExp {
		li = lifeMaxExp - lifeMinExp
	}
	p.life[p.sizeBin(sizeBytes)][li] += samples
	p.samples += int64(samples)
}

// SizeXs returns the canonical CDF evaluation grid: every power-of-two
// size bin boundary the histograms use, so CDF output is deterministic
// and aligned with Fig. 7's x-axis.
func SizeXs() []float64 {
	xs := make([]float64, 0, sizeMaxExp-sizeMinExp+1)
	v := float64(int64(1) << sizeMinExp)
	for e := sizeMinExp; e <= sizeMaxExp; e++ {
		xs = append(xs, v)
		v *= 2
	}
	return xs
}
