package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cabd/internal/series"
	"cabd/internal/stats"
)

func TestCandidateEstimationFindsSpike(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 0.1
	}
	vals[250] = 50
	cands, hits := candidates([][]float64{vals}, 3)
	found := false
	for _, c := range cands {
		if c.Index == 250 {
			found = true
			if c.SecondDiffZ < 10 {
				t.Errorf("spike z-score = %v, want large", c.SecondDiffZ)
			}
		}
	}
	if !found {
		t.Errorf("spike not among candidates: %v", cands)
	}
	if hits != nil {
		t.Errorf("one channel returned co-occurrence hits %v", hits)
	}
}

func TestCandidateEstimationAffineSeriesEmpty(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 3 + 0.5*float64(i)
	}
	if cands, hits := candidates([][]float64{vals}, 3); cands != nil || hits != nil {
		t.Errorf("affine series produced candidates: %v", cands)
	}
}

func TestCandidateFloodGuard(t *testing.T) {
	// Mostly-flat data with MAD = 0: every wiggle has infinite robust z.
	// The guard must cap the candidate set at a quarter of the series.
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 400)
	for i := 0; i < 40; i++ {
		vals[rng.Intn(400)] = 1
	}
	cands, _ := candidates([][]float64{vals}, 3)
	if len(cands) > 100 {
		t.Errorf("flood guard failed: %d candidates", len(cands))
	}
	for _, c := range cands {
		if !(c.SecondDiffZ > 3) {
			t.Errorf("candidate %d kept without its z-score: %v", c.Index, c.SecondDiffZ)
		}
	}
}

func TestCandidatesCoverInjectedFeatures(t *testing.T) {
	// Each injected feature must have a candidate within 2 positions.
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 0.2
	}
	spots := []int{100, 300, 500, 700, 900}
	for _, p := range spots {
		vals[p] += 30
	}
	cands, _ := candidates([][]float64{vals}, 3)
	set := map[int]bool{}
	for _, c := range cands {
		set[c.Index] = true
	}
	for _, p := range spots {
		ok := false
		for off := -2; off <= 2; off++ {
			if set[p+off] {
				ok = true
			}
		}
		if !ok {
			t.Errorf("no candidate near injected spike at %d", p)
		}
	}
}

// TestCandidateCoOccurrence checks the d = 3 union and its
// co-occurrence counts against a brute-force reference: a point is a
// candidate when some channel's robust z exceeds the threshold, the
// channel with the strongest z owns it, and hits[i] counts the channels
// flagging a point within ±coocTol of i. A spike in every channel
// within the tolerance of index 101 must count all three.
func TestCandidateCoOccurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 300
	chans := make([][]float64, 3)
	for k := range chans {
		chans[k] = noisyBase(rng, n)
	}
	chans[0][100] = 30
	chans[1][101] = 20
	chans[2][98] = 10
	chans[1][200] = 25
	cands, hits := candidates(chans, 3)
	if len(hits) != n {
		t.Fatalf("len(hits) = %d, want %d", len(hits), n)
	}
	rz := make([][]float64, len(chans))
	for k, ch := range chans {
		rz[k] = stats.RobustZ(series.SecondDiff(ch))
	}
	var want []Candidate
	for i := 0; i < n; i++ {
		best := 0
		for k := range rz {
			if rz[k][i] > rz[best][i] {
				best = k
			}
		}
		if rz[best][i] > 3 {
			want = append(want, Candidate{Index: i, SecondDiffZ: rz[best][i], Channel: best})
		}
		count := 0
		for k := range rz {
			for j := i - coocTol; j <= i+coocTol; j++ {
				if j >= 0 && j < n && rz[k][j] > 3 {
					count++
					break
				}
			}
		}
		if hits[i] != count {
			t.Errorf("hits[%d] = %d, reference %d", i, hits[i], count)
		}
	}
	if !reflect.DeepEqual(cands, want) {
		t.Errorf("candidates differ from the reference:\n got %v\nwant %v", cands, want)
	}
	if hits[101] != 3 {
		t.Errorf("hits[101] = %d, want 3", hits[101])
	}
}

// TestTopByZMatchesReference checks the MAD-collapse guard against a
// brute-force reference: a candidate is kept iff fewer than k others beat
// it on (z descending, ∂ in its own channel descending, index
// ascending). Inputs mix exact ties and +Inf in both keys.
func TestTopByZMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	levels := []float64{3.5, 4, 4, 7.25, math.Inf(1)}
	steps := []float64{0.5, 1, 1, 2, 3}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		cands := make([]Candidate, n)
		d2 := [][]float64{make([]float64, 4*n+1), make([]float64, 4*n+1)}
		idx := 0
		for i := range cands {
			idx += 1 + rng.Intn(3)
			z := levels[rng.Intn(len(levels))]
			if rng.Intn(3) == 0 {
				z = 3 + rng.Float64()*10
			}
			ch := rng.Intn(2)
			d2[ch][idx] = steps[rng.Intn(len(steps))]
			d2[1-ch][idx] = 10 // the other channel's ∂ must not count
			cands[i] = Candidate{Index: idx, SecondDiffZ: z, Channel: ch}
		}
		k := rng.Intn(n+2) - 1
		in := make([]Candidate, n)
		copy(in, cands)
		got := topByZ(cands, d2, k)
		if !reflect.DeepEqual(cands, in) {
			t.Fatalf("trial %d: topByZ modified its input", trial)
		}
		keep := k
		if keep < 1 {
			keep = 1
		}
		own := func(c Candidate) float64 { return d2[c.Channel][c.Index] }
		var want []Candidate
		for _, c := range cands {
			beaten := 0
			for _, o := range cands {
				switch {
				case o.SecondDiffZ != c.SecondDiffZ:
					if o.SecondDiffZ > c.SecondDiffZ {
						beaten++
					}
				case own(o) != own(c):
					if own(o) > own(c) {
						beaten++
					}
				case o.Index < c.Index:
					beaten++
				}
			}
			if beaten < keep {
				want = append(want, c)
			}
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d (n=%d k=%d):\n got %v\nwant %v", trial, n, k, got, want)
		}
	}
}

// TestFloodGuardKeepsLargestSteps: under MAD collapse at d = 2 every
// flagged z is +Inf, so the guard must fall through to the step size.
// Unit steps fill both channels, and ten 40-unit steps per channel sit
// in the last quarter: every one of them must survive the guard, which
// used to keep the earliest n/4 candidates instead.
func TestFloodGuardKeepsLargestSteps(t *testing.T) {
	n := 400
	chans := [][]float64{make([]float64, n), make([]float64, n)}
	var big []int
	for k, ch := range chans {
		v := 0.0
		for i := range ch {
			switch {
			case i >= 320+k && i < 380 && (i-320-k)%6 == 0:
				v += 40
				big = append(big, i)
			case i%3 == k:
				v++
			}
			ch[i] = v
		}
	}
	cands, _ := candidates(chans, 3)
	if len(cands) != n/4 {
		t.Fatalf("%d candidates, want the guard's %d", len(cands), n/4)
	}
	kept := map[int]bool{}
	for _, c := range cands {
		kept[c.Index] = true
		if !math.IsInf(c.SecondDiffZ, 1) {
			t.Fatalf("candidate %d has z %v; the fixture must collapse the MAD", c.Index, c.SecondDiffZ)
		}
	}
	for _, i := range big {
		if !kept[i] {
			t.Errorf("a 40-unit step at %d was dropped by the flood guard", i)
		}
	}
}
