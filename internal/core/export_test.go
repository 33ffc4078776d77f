package core

import (
	"math/rand"

	"cabd/internal/ml/forest"
)

// WithSeqOracle returns opts with classification switched to the
// sequential row-major reference the optimized path is proved against.
// Run the oracle at GOMAXPROCS 1, which also gives scoring one worker.
// It reaches multivariate detection too, through multi.NewDetector.
func WithSeqOracle(opts Options) Options {
	opts.classifyRows = &seqOracle
	return opts
}

var seqOracle rowClassifier = classifySeq

// Options stays comparable (cabd.Options aliases it and the stream
// configs embed it), which is why the seam is a pointer.
var _ = Options{} == Options{}

// classifySeq is the sequential row-major reference for classify: the
// per-candidate feature rows the SoA columns replaced, single-goroutine
// training, and per-row full and out-of-bag inference.
func classifySeq(d *Detector, cands []Candidate, width int, y []int, w []float64, cfg forest.Config, trueLabels map[int]Class, rng *rand.Rand) *forest.Forest {
	cfg.Workers = 1
	X := make([][]float64, len(cands))
	for i := range cands {
		X[i] = cands[i].features(d.opts, width)
	}
	fr := forest.TrainWeighted(X, y, w, cfg, rng)
	for i := range cands {
		if cls, ok := trueLabels[i]; ok {
			cands[i].Class = cls
			cands[i].Confidence = 1
			continue
		}
		if fr == nil {
			continue
		}
		full := fr.PredictProba(X[i])
		best, bi := -1.0, 0
		for c, p := range full {
			if p > best {
				best, bi = p, c
			}
		}
		oob := fr.PredictProbaOOB(i, X[i])
		cands[i].Class = Class(bi)
		cands[i].Confidence = oob[bi]
	}
	return fr
}
