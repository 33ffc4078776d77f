package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail latency may be reported at,
// highest first. A fixed ladder keeps the reported percentile the same
// across runs whose sample counts differ, and across commits that make
// ops faster. It tops out at p90: on a shared 2-core host the p99 and
// p95 of a half-minute run are set by other tenants' bursts (a stalled
// vCPU delays a few percent of the ops by tens of milliseconds), not by
// the program.
var tailLadder = []float64{90, 75, 50}

// minBeyondTail is how many samples must lie above the reported tail
// percentile for it to be more than one outlier.
const minBeyondTail = 10

// quantile returns the nearest-rank q-quantile (q in [0,1]) of sorted.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	r := rank(q, n)
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// beyond returns how many of n samples rank above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int { return n - rank(p/100, n) }

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// small slack keeps a product like 0.999*10000 from rounding up past an
// exact integer rank.
func rank(q float64, n int) int {
	return max(int(math.Ceil(q*float64(n)-1e-6)), 1)
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyondTail samples beyond it among n samples, and that count. It
// returns ok=false when even the median has fewer samples beyond it.
func tailPercentile(n int) (p float64, nBeyond int, ok bool) {
	for _, p := range tailLadder {
		if b := beyond(n, p); b >= minBeyondTail {
			return p, b, true
		}
	}
	return 0, 0, false
}

// latencySummary is the median and tail of one set of op latencies.
type latencySummary struct {
	N          int     `json:"n"`
	P50Ms      float64 `json:"p50_ms"`
	TailMs     float64 `json:"tail_ms"`
	TailPct    float64 `json:"tail_percentile"`
	TailBeyond int     `json:"tail_samples_beyond"`
}

// summarize computes the latency summary of samples. With too few samples
// for any ladder percentile the tail falls back to the maximum.
func summarize(samples []time.Duration) latencySummary {
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	out := latencySummary{N: len(ms), P50Ms: quantile(ms, 0.5)}
	if p, b, ok := tailPercentile(len(ms)); ok {
		out.TailMs, out.TailPct, out.TailBeyond = quantile(ms, p/100), p, b
	} else if len(ms) > 0 {
		out.TailMs, out.TailPct = ms[len(ms)-1], 100
	}
	return out
}

// median returns the median of xs (the mean of the middle pair for even
// lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// durMs converts a duration to float milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durUs converts a duration to float microseconds.
func durUs(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// prf accumulates detection matches over many series, so F1 is computed
// over the pooled counts instead of averaged per series.
type prf struct{ tp, fp, fn int }

func (p *prf) add(tp, fp, fn int) { p.tp, p.fp, p.fn = p.tp+tp, p.fp+fp, p.fn+fn }

// f1 returns the pooled F1 (0 when nothing was predicted or expected).
func (p prf) f1() float64 {
	if 2*p.tp+p.fp+p.fn == 0 {
		return 0
	}
	return 2 * float64(p.tp) / float64(2*p.tp+p.fp+p.fn)
}
