package oracle

import (
	"testing"

	"cabd/internal/series"
)

func TestOracleAnswersFromGroundTruth(t *testing.T) {
	s := series.New("x", make([]float64, 5))
	s.EnsureLabels()[2] = series.SingleAnomaly
	s.Labels[4] = series.ChangePoint
	o := New(s)
	if got := o.Label(2); got != series.SingleAnomaly {
		t.Errorf("Label(2) = %v", got)
	}
	if got := o.Label(4); got != series.ChangePoint {
		t.Errorf("Label(4) = %v", got)
	}
	if got := o.Label(0); got != series.Normal {
		t.Errorf("Label(0) = %v", got)
	}
	if o.Queries() != 3 {
		t.Errorf("Queries = %d", o.Queries())
	}
	idx := o.QueriedIndices()
	if len(idx) != 3 || idx[0] != 2 || idx[1] != 4 || idx[2] != 0 {
		t.Errorf("QueriedIndices = %v", idx)
	}
}

func TestOracleUnlabeledSeries(t *testing.T) {
	o := New(series.New("x", make([]float64, 3)))
	if got := o.Label(1); got != series.Normal {
		t.Errorf("unlabeled series answered %v", got)
	}
}

func TestQueriedIndicesIsCopy(t *testing.T) {
	s := series.New("x", make([]float64, 3))
	o := New(s)
	o.Label(1)
	idx := o.QueriedIndices()
	idx[0] = 99
	if o.QueriedIndices()[0] != 1 {
		t.Error("QueriedIndices exposed internal storage")
	}
}
