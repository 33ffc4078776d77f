// Package multi extends CABD to multi-dimensional time series — the
// direction the paper's conclusion singles out as future work ("we plan
// to study how our techniques apply on multi-dimensional times series").
//
// The extension keeps every stage of the univariate pipeline and
// generalizes the geometry:
//
//   - points embed as (standardized index, standardized value_1, ...,
//     standardized value_d) and the INN is computed over that space with
//     the same per-offset mutual-rank bound and 5% prune;
//   - candidate estimation takes, per point, the strongest per-dimension
//     robust z-score of the absolute second difference;
//   - scoring, the GMM/rule bootstrap, the random forest and the CAL
//     loop are core's own (core.Detector.DetectCandidatesCtx): the
//     correlation score reads the SAX words of the channel that flagged
//     the candidate, the variance score the mean per-channel variance,
//     and d >= 2 channels add the cross-channel decorrelation feature.
package multi

import (
	"context"
	"sort"

	"cabd/internal/core"
	"cabd/internal/inn"
	"cabd/internal/obs"
	"cabd/internal/series"
	"cabd/internal/stats"
)

// Series is a d-dimensional, equally spaced time series: Dims holds d
// slices of equal length n. Labels, when non-nil, carries per-point
// ground truth shared across dimensions.
type Series struct {
	Name   string
	Dims   [][]float64
	Labels []series.Label
}

// NewSeries wraps dims (which must be non-empty and of equal lengths).
func NewSeries(name string, dims [][]float64) *Series {
	return &Series{Name: name, Dims: dims}
}

// Len returns the number of time steps (0 for an empty series).
func (s *Series) Len() int {
	if len(s.Dims) == 0 {
		return 0
	}
	return len(s.Dims[0])
}

// D returns the number of dimensions.
func (s *Series) D() int { return len(s.Dims) }

// LabelAt returns the ground-truth label of index i (Normal when
// unlabeled or out of range).
func (s *Series) LabelAt(i int) series.Label {
	if s.Labels == nil || i < 0 || i >= len(s.Labels) {
		return series.Normal
	}
	return s.Labels[i]
}

// AnomalyIndices returns the indices labeled as anomalies.
func (s *Series) AnomalyIndices() []int {
	var out []int
	for i, l := range s.Labels {
		if l.IsAnomaly() {
			out = append(out, i)
		}
	}
	return out
}

// ChangePointIndices returns the indices labeled as change points.
func (s *Series) ChangePointIndices() []int {
	var out []int
	for i, l := range s.Labels {
		if l == series.ChangePoint {
			out = append(out, i)
		}
	}
	return out
}

// Detector runs multivariate CABD. Options are the univariate option set
// and every Strategy is honoured. For d >= 2 channels the classifier
// additionally receives the cross-channel decorrelation feature
// (core.Candidate.XCorr) and detections co-occurring across channels
// merge into the collective subtype (CAPA-style); d = 1 keeps the
// univariate feature layout.
type Detector struct {
	opts core.Options
	core *core.Detector
}

// NewDetector returns a multivariate detector.
func NewDetector(opts core.Options) *Detector {
	c := core.NewDetector(opts)
	return &Detector{opts: c.Options(), core: c}
}

// Options returns the resolved option set.
func (d *Detector) Options() core.Options { return d.opts }

// Detect runs the unsupervised multivariate pipeline.
func (d *Detector) Detect(s *Series) *core.Result {
	res, _ := d.DetectCtx(context.Background(), s)
	return res
}

// DetectActive runs the pipeline with the CAL active-learning loop.
func (d *Detector) DetectActive(s *Series, o core.Labeler) *core.Result {
	res, _ := d.DetectActiveCtx(context.Background(), s, o)
	return res
}

// DetectCtx is Detect with cancellation: ctx is checked at stage
// boundaries and per candidate inside the scoring worker pool, and a
// cancelled context returns ctx.Err() promptly.
func (d *Detector) DetectCtx(ctx context.Context, s *Series) (*core.Result, error) {
	return d.run(ctx, s, nil)
}

// DetectActiveCtx is DetectActive with cancellation.
func (d *Detector) DetectActiveCtx(ctx context.Context, s *Series, o core.Labeler) (*core.Result, error) {
	return d.run(ctx, s, o)
}

// coocTol is the index tolerance for cross-channel co-occurrence: a
// candidate flagged within +-coocTol positions in at least two channels
// is a collective (multivariate) anomaly when it classifies as one.
const coocTol = 2

func (d *Detector) run(ctx context.Context, s *Series, o core.Labeler) (*core.Result, error) {
	t := d.opts.Obs.NewTrace()
	n := s.Len()
	if n < 4 || s.D() == 0 {
		return &core.Result{Strategy: d.opts.Strategy}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Standardize every dimension (Equation 2 per dimension).
	std := make([][]float64, s.D())
	for k, dim := range s.Dims {
		std[k] = stats.Standardize(dim)
	}

	// Per-channel candidate estimation: each channel's robust z of the
	// absolute second difference flags its own candidates; the union
	// (deduplicated by index, keeping the strongest z and the channel
	// that produced it) is the joint candidate set, and the per-channel
	// flags feed the co-occurrence merge below.
	var cands []core.Candidate
	chHits := make([]int, n)
	t.Do(obs.StageCandidates, func() {
		zmax := make([]float64, n)
		zdim := make([]int, n)
		flagged := make([][]bool, s.D())
		for k, dim := range std {
			d2 := series.SecondDiff(dim)
			rz := stats.RobustZ(d2)
			fl := make([]bool, n)
			for i, z := range rz {
				if z > zmax[i] {
					zmax[i] = z
					zdim[i] = k
				}
				if z > d.opts.CandidateZ {
					fl[i] = true
				}
			}
			flagged[k] = fl
		}
		for i, z := range zmax {
			if z > d.opts.CandidateZ {
				cands = append(cands, core.Candidate{Index: i, SecondDiffZ: z, Channel: zdim[i]})
			}
		}
		if len(cands) > n/4 {
			cands = topByZ(cands, n/4)
		}
		// Co-occurrence counts: how many channels flag each index within
		// the tolerance window.
		for i := range chHits {
			for k := range flagged {
				for off := -coocTol; off <= coocTol; off++ {
					if j := i + off; j >= 0 && j < n && flagged[k][j] {
						chHits[i]++
						break
					}
				}
			}
		}
	})
	if len(cands) == 0 {
		return &core.Result{Strategy: d.opts.Strategy, Stages: t.Timings()}, nil
	}

	res, err := d.core.DetectCandidatesCtx(ctx, t, std, inn.NewNComputer(embed(std)), cands, o)
	if err != nil {
		return nil, err
	}
	// CAPA-style collective merge: an anomaly detection at an index
	// flagged by two or more channels is a cross-channel collective
	// anomaly, whatever its per-channel neighborhood size said.
	if s.D() >= 2 {
		for i := range res.Anomalies {
			if chHits[res.Anomalies[i].Index] >= 2 {
				res.Anomalies[i].Subtype = series.CollectiveAnomaly
			}
		}
	}
	return res, nil
}

// topByZ keeps the k strongest candidates (guard against MAD collapse):
// the k highest SecondDiffZ, the lower index first among ties, returned
// in index order.
func topByZ(cands []core.Candidate, k int) []core.Candidate {
	if k < 1 {
		k = 1
	}
	out := append([]core.Candidate(nil), cands...)
	sort.Slice(out, func(a, b int) bool {
		//cabd:lint-ignore floateq a deterministic (z, index) selection order needs exact ties to fall through to the index
		if out[a].SecondDiffZ != out[b].SecondDiffZ {
			return out[a].SecondDiffZ > out[b].SecondDiffZ
		}
		return out[a].Index < out[b].Index
	})
	if len(out) > k {
		out = out[:k]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// embed builds (standardized index, v_1..v_d) rows, carved from one
// backing array so the embedding costs a constant number of allocations.
func embed(std [][]float64) [][]float64 {
	n, w := len(std[0]), 1+len(std)
	idx := make([]float64, n)
	for i := range idx {
		idx[i] = float64(i)
	}
	sidx := stats.Standardize(idx)
	flat := make([]float64, n*w)
	pts := make([][]float64, n)
	for i := range pts {
		row := flat[i*w : (i+1)*w : (i+1)*w]
		row[0] = sidx[i]
		for k := range std {
			row[k+1] = std[k][i]
		}
		pts[i] = row
	}
	return pts
}
