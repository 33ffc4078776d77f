package main

import (
	"fmt"
	"math"

	"cabd"
	"cabd/httpapi"
)

// detection is the comparable form of one reported detection, shared by
// the facade, stream and wire results.
type detection struct {
	Index      int
	Subtype    string
	Confidence float64
}

// verdict is one op's detections: anomalies and change points, each in
// the order the program returned them.
type verdict struct {
	Anomalies    []detection
	ChangePoints []detection
}

func fromFacade(res *cabd.Result) verdict {
	conv := func(ds []cabd.Detection) []detection {
		out := make([]detection, len(ds))
		for i, d := range ds {
			out[i] = detection{Index: d.Index, Subtype: d.Subtype.String(), Confidence: d.Confidence}
		}
		return out
	}
	return verdict{Anomalies: conv(res.Anomalies), ChangePoints: conv(res.ChangePoints)}
}

func fromWire(res *httpapi.DetectResponse) verdict {
	conv := func(ds []httpapi.Detection) []detection {
		out := make([]detection, len(ds))
		for i, d := range ds {
			out[i] = detection{Index: d.Index, Subtype: d.Subtype, Confidence: d.Confidence}
		}
		return out
	}
	return verdict{Anomalies: conv(res.Anomalies), ChangePoints: conv(res.ChangePoints)}
}

// indices returns every reported index (anomalies then change points).
func (v verdict) indices() []int {
	out := make([]int, 0, len(v.Anomalies)+len(v.ChangePoints))
	for _, d := range v.Anomalies {
		out = append(out, d.Index)
	}
	for _, d := range v.ChangePoints {
		out = append(out, d.Index)
	}
	return out
}

func (v verdict) count() int { return len(v.Anomalies) + len(v.ChangePoints) }

// check validates a verdict over a series of length n: indices in range
// and strictly increasing within each list, confidences in [0,1], and
// subtypes from the label vocabulary that fits the list.
func (v verdict) check(n int) error {
	anomaly := map[string]bool{httpapi.LabelSingleAnomaly: true, httpapi.LabelCollectiveAnomaly: true}
	change := map[string]bool{httpapi.LabelChangePoint: true}
	if err := checkList("anomaly", v.Anomalies, n, anomaly); err != nil {
		return err
	}
	return checkList("change point", v.ChangePoints, n, change)
}

func checkList(kind string, ds []detection, n int, subtypes map[string]bool) error {
	for i, d := range ds {
		if d.Index < 0 || d.Index >= n {
			return fmt.Errorf("%s index %d outside [0,%d)", kind, d.Index, n)
		}
		if i > 0 && d.Index <= ds[i-1].Index {
			return fmt.Errorf("%s indices not increasing: %d after %d", kind, d.Index, ds[i-1].Index)
		}
		if math.IsNaN(d.Confidence) || d.Confidence < 0 || d.Confidence > 1 {
			return fmt.Errorf("%s %d confidence %v outside [0,1]", kind, d.Index, d.Confidence)
		}
		if !subtypes[d.Subtype] {
			return fmt.Errorf("%s %d has subtype %q", kind, d.Index, d.Subtype)
		}
	}
	return nil
}

// equal reports whether two verdicts are identical, confidences bit for
// bit.
func (v verdict) equal(o verdict) bool {
	return sameList(v.Anomalies, o.Anomalies) && sameList(v.ChangePoints, o.ChangePoints)
}

func sameList(a, b []detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Subtype != b[i].Subtype ||
			math.Float64bits(a[i].Confidence) != math.Float64bits(b[i].Confidence) {
			return false
		}
	}
	return true
}

// streamChecker validates one stream's emissions: every index is emitted
// once, lies in the confirmed part of the window at emission time (older
// than the trailing margin, not yet slid out), and within one hop each
// subtype group comes out in increasing index order.
type streamChecker struct {
	window, margin int
	seen           map[int]bool
}

func newStreamChecker(window, margin int) *streamChecker {
	return &streamChecker{window: window, margin: margin, seen: make(map[int]bool)}
}

// observe checks the detections one Push returned after total points.
func (c *streamChecker) observe(total int, ds []cabd.StreamDetection) error {
	lastA, lastC := -1, -1
	for _, d := range ds {
		if c.seen[d.Index] {
			return fmt.Errorf("stream index %d emitted twice", d.Index)
		}
		c.seen[d.Index] = true
		if d.Index < total-c.window || d.Index >= total-c.margin {
			return fmt.Errorf("stream index %d emitted after %d points, outside the confirmed window", d.Index, total)
		}
		last := &lastA
		if d.Subtype == cabd.ChangePoint {
			last = &lastC
		} else if !d.Subtype.IsAnomaly() {
			return fmt.Errorf("stream index %d has subtype %v", d.Index, d.Subtype)
		}
		if d.Index <= *last {
			return fmt.Errorf("stream indices not increasing within a hop: %d after %d", d.Index, *last)
		}
		*last = d.Index
		if math.IsNaN(d.Confidence) || d.Confidence < 0 || d.Confidence > 1 {
			return fmt.Errorf("stream index %d confidence %v outside [0,1]", d.Index, d.Confidence)
		}
	}
	return nil
}
