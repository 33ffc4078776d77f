package core

import (
	"sort"

	"cabd/internal/series"
	"cabd/internal/stats"
)

// coocTol is the index tolerance for cross-channel co-occurrence: a
// candidate flagged within ±coocTol positions in at least two channels
// is a collective (multivariate) anomaly when it classifies as one.
const coocTol = 2

// candidates implements Candidate Estimation (Algorithm 2 line 1) over
// one or more equal-length channels: a point is a candidate when the
// robust z-score of its absolute second difference ∂ (Equation 4/6)
// exceeds z — the MAD-based rule of Definition 4 read as
// |∂_i - median(∂)| > z·MAD(∂). This is a global, INN-independent
// analysis of the series. Each candidate's SecondDiffZ is the strength
// of its ∂ deviation, which the bootstrap rules reuse to grade level
// shifts.
//
// One channel is a univariate series, read raw: the robust z of ∂ is
// invariant under the affine standardization of Equation 2 (both the
// median offset and the MAD scale cancel), so standardizing first buys
// nothing. No hits come back.
//
// With two or more channels, each channel flags its own points; the
// union, deduplicated by index, keeps the strongest z and the channel
// that produced it (Candidate.Channel). hits[i] counts the channels
// that flag a point within ±coocTol of i, for the collective merge.
//
// When MAD collapses to zero on mostly-flat data, RobustZ flags every
// nonzero deviation as +Inf; more than n/4 candidates trip a flood
// guard that keeps the n/4 largest second differences (topDeviations on
// one channel, topByZ on several).
func candidates(chans [][]float64, z float64) (cands []Candidate, hits []int) {
	n := len(chans[0])
	if len(chans) == 1 {
		d2 := series.SecondDiff(chans[0])
		rz := stats.RobustZ(d2)
		k := 0
		for _, v := range rz {
			if v > z {
				k++
			}
		}
		if k == 0 {
			return nil, nil
		}
		if k > n/4 {
			return topDeviations(d2, rz, n/4), nil
		}
		cands = make([]Candidate, 0, k)
		for i, v := range rz {
			if v > z {
				cands = append(cands, Candidate{Index: i, SecondDiffZ: v})
			}
		}
		return cands, nil
	}

	zmax := make([]float64, n)
	zdim := make([]int, n)
	d2 := make([][]float64, len(chans))
	flagged := make([][]bool, len(chans))
	for k, ch := range chans {
		d2[k] = series.SecondDiff(ch)
		rz := stats.RobustZ(d2[k])
		fl := make([]bool, n)
		for i, v := range rz {
			if v > zmax[i] {
				zmax[i] = v
				zdim[i] = k
			}
			fl[i] = v > z
		}
		flagged[k] = fl
	}
	for i, v := range zmax {
		if v > z {
			cands = append(cands, Candidate{Index: i, SecondDiffZ: v, Channel: zdim[i]})
		}
	}
	if len(cands) > n/4 {
		cands = topByZ(cands, d2, n/4)
	}
	hits = make([]int, n)
	for i := range hits {
		for _, fl := range flagged {
			for j := max(i-coocTol, 0); j <= min(i+coocTol, n-1); j++ {
				if fl[j] {
					hits[i]++
					break
				}
			}
		}
	}
	return cands, hits
}

// topDeviations returns the candidates at the k largest second
// differences d2, in index order, with their robust z from rz. Ties are
// broken toward the smaller index so the selected set is a
// deterministic function of the values.
func topDeviations(d2, rz []float64, k int) []Candidate {
	if k < 1 {
		k = 1
	}
	idx := make([]int, len(d2))
	for i := range idx {
		idx[i] = i
	}
	// Simple sort is fine at these sizes.
	sort.Slice(idx, func(a, b int) bool {
		//cabd:lint-ignore floateq deterministic (value, index) selection order needs exact ties to fall through to the index
		if d2[idx[a]] != d2[idx[b]] {
			return d2[idx[a]] > d2[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	idx = idx[:k]
	sort.Ints(idx)
	cands := make([]Candidate, k)
	for i, ci := range idx {
		cands[i] = Candidate{Index: ci, SecondDiffZ: rz[ci]}
	}
	return cands
}

// topByZ keeps the k strongest candidates (guard against MAD collapse),
// returned in index order. Strength is the SecondDiffZ, then the second
// difference d2 in the candidate's own channel, then the lower index:
// under MAD collapse every flagged z is +Inf, and without the ∂ tie
// break the guard would keep the earliest candidates, not the largest
// steps.
func topByZ(cands []Candidate, d2 [][]float64, k int) []Candidate {
	if k < 1 {
		k = 1
	}
	out := append([]Candidate(nil), cands...)
	sort.Slice(out, func(a, b int) bool {
		ca, cb := &out[a], &out[b]
		//cabd:lint-ignore floateq a deterministic (z, ∂, index) selection order needs exact ties to fall through
		if ca.SecondDiffZ != cb.SecondDiffZ {
			return ca.SecondDiffZ > cb.SecondDiffZ
		}
		da, db := d2[ca.Channel][ca.Index], d2[cb.Channel][cb.Index]
		//cabd:lint-ignore floateq a deterministic (z, ∂, index) selection order needs exact ties to fall through
		if da != db {
			return da > db
		}
		return ca.Index < cb.Index
	})
	if len(out) > k {
		out = out[:k]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}
