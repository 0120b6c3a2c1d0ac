package pageheap

// Policy is the hugepage filler's lifetime policy (§4.4): whether spans
// are split between short- and long-lived hugepage sets, and how a
// span's lifetime class is predicted.
type Policy uint8

const (
	// FillerNone is the lifetime-agnostic filler: every span fills the
	// one (long-lived) hugepage set (legacy).
	FillerNone Policy = iota
	// FillerCapacity is the paper's static rule: spans whose capacity
	// is below C objects (large-object classes) are short-lived.
	FillerCapacity
	// FillerHeapProf predicts lifetimes from the sampled heap
	// profiler's observed per-class lifetime decades: once a class has
	// feedbackMinSamples freed samples, its spans are short-lived when
	// the mean decade is at most feedbackShortDecade. Classes without
	// enough observations fall back to the capacity rule with the
	// default C.
	FillerHeapProf
)

// DefaultLifetimeThreshold is the paper's C = 16: spans holding fewer
// than 16 objects are classified short-lived for the lifetime-aware
// filler (§4.4).
const DefaultLifetimeThreshold = 16

const (
	// feedbackShortDecade is the inclusive mean-decade cutoff for
	// short-lived spans: 10^7 ns = 10 ms, comfortably inside a
	// simulated span's residency.
	feedbackShortDecade = 7
	// feedbackMinSamples gates the feedback path.
	feedbackMinSamples = 32
)

// LifetimeFeedback reports observed object lifetimes for a size class:
// the mean lifetime decade (floor(log10 ns), the heap profiler's site
// axis) over samples freed objects. A nil feed, or zero samples, means
// no observations yet.
type LifetimeFeedback func(class int) (meanDecade float64, samples int64)

// Classify predicts, under the heap's filler policy, the lifetime class
// of the spans a central free list will request. classIndex is the
// sizeclass table index, objectsPerSpan the span capacity, threshold the
// list's C (zero means DefaultLifetimeThreshold); feed may be nil when
// no profiler is attached. The lifetime-agnostic filler ignores the
// answer, which it computes with the capacity rule.
func (p *PageHeap) Classify(classIndex, objectsPerSpan, threshold int, feed LifetimeFeedback) Lifetime {
	if p.cfg.Filler == FillerHeapProf {
		if feed != nil {
			if mean, n := feed(classIndex); n >= feedbackMinSamples {
				if mean <= feedbackShortDecade {
					return LifetimeShort
				}
				return LifetimeLong
			}
		}
		threshold = DefaultLifetimeThreshold
	}
	if threshold <= 0 {
		threshold = DefaultLifetimeThreshold
	}
	if objectsPerSpan < threshold {
		return LifetimeShort
	}
	return LifetimeLong
}
