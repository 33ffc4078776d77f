package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"cabd"
	"cabd/internal/faultgen"
	"cabd/internal/scenario"
	"cabd/internal/series"
	"cabd/internal/synth"
)

// Match tolerances for F1: univariate truth marks every anomalous point
// and change point; scenario truth marks fault onsets only, so a
// detection a few steps into the fault still finds it.
const (
	uniTol   = 2
	multiTol = 5
)

// uniSeries is one generated univariate series with its ground truth.
type uniSeries struct {
	Values []float64
	Labels []series.Label
	Truth  []int // anomaly and change-point indices, sorted
}

// label answers an active-learning query from ground truth.
func (s *uniSeries) label(i int) cabd.Label { return cabd.Label(s.Labels[i]) }

// itemSeed derives the seed of item i of a workload from its seed.
func itemSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 + 17 }

// genUni generates a univariate series of length n with single anomalies,
// collective anomalies and change points over a seasonal, trending
// carrier.
func genUni(seed int64, n int) uniSeries {
	s := synth.Generate(synth.Config{
		N: n, Seed: seed,
		SingleFrac:     0.004,
		CollectiveFrac: 0.010,
		ChangeFrac:     0.002,
		TrendSlope:     4.0 / float64(n),
	})
	truth := append(s.AnomalyIndices(), s.ChangePointIndices()...)
	return uniSeries{Values: s.Values, Labels: s.Labels, Truth: sortedUnique(truth)}
}

// genUniPool generates count series of length n.
func genUniPool(seed int64, count, n int) []uniSeries {
	out := make([]uniSeries, count)
	for i := range out {
		out[i] = genUni(itemSeed(seed, i), n)
	}
	return out
}

// multiPayload is one generated d-channel series with fault-onset truth.
type multiPayload struct {
	Dims  [][]float64
	Truth []int
}

// genMulti generates payload i: correlated channels corrupted by level
// shifts, on a flat or a seasonal carrier. Level shifts keep every value
// finite, so the payload survives JSON.
func genMulti(seed int64, i, d, n int) multiPayload {
	fam := synth.FamilyFlat
	if i%2 == 1 {
		fam = synth.FamilySeasonal
	}
	cell := scenario.Cell{Kind: faultgen.KindLevelShift, Family: fam, Channels: d, Severity: scenario.Severe}
	sc := scenario.GenerateScenario(cell, itemSeed(seed, i), n, 0.8)
	return multiPayload{Dims: sc.Dims, Truth: sc.Truth}
}

// fingerprinter hashes generated inputs so two runs can be shown to use
// identical data.
type fingerprinter struct{ h hash.Hash }

func newFingerprinter(workload string) *fingerprinter {
	f := &fingerprinter{h: sha256.New()}
	f.h.Write([]byte(workload))
	return f
}

func (f *fingerprinter) floats(xs []float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	f.h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		f.h.Write(b[:])
	}
}

func (f *fingerprinter) ints(xs []int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	f.h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		f.h.Write(b[:])
	}
}

func (f *fingerprinter) uni(ss []uniSeries) {
	for i := range ss {
		f.floats(ss[i].Values)
		f.ints(ss[i].Truth)
	}
}

func (f *fingerprinter) multi(ps []multiPayload) {
	for i := range ps {
		for _, dim := range ps[i].Dims {
			f.floats(dim)
		}
		f.ints(ps[i].Truth)
	}
}

func (f *fingerprinter) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

// sortedUnique sorts xs in place and drops duplicates.
func sortedUnique(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// genMultiPool generates count multivariate payloads of serveDims
// channels and serveN points.
func genMultiPool(seed int64, count int) []multiPayload {
	out := make([]multiPayload, count)
	for i := range out {
		out[i] = genMulti(seed, i, serveDims, serveN)
	}
	return out
}

// genStreamProbe generates the series the layer sweep streams through a
// detector, for workloads that have no stream of their own.
func genStreamProbe(seed int64) []float64 {
	return genUni(itemSeed(seed, 1<<20), replayPoints).Values
}
