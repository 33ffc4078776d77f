package core

import (
	"math/rand"
	"testing"
)

func med(cands []Candidate) scoreMedians {
	m := medians(cands)
	m.zHigh = strongZ(cands)
	return m
}

// population builds a realistic candidate mix for rule testing.
func population() []Candidate {
	var cands []Candidate
	rng := rand.New(rand.NewSource(1))
	// Normal noise candidates: low everything, z near threshold.
	for i := 0; i < 40; i++ {
		cands = append(cands, Candidate{
			Index: i * 10, Magnitude: 0.002, Correlation: 0.3 + 0.1*rng.Float64(),
			Variance: 0.05 * rng.Float64(), SecondDiffZ: 3.5 + rng.Float64(),
		})
	}
	return cands
}

func TestRuleClassSingleAnomaly(t *testing.T) {
	cands := population()
	m := med(cands)
	c := Candidate{Magnitude: 0, Correlation: 0.01, Variance: 0.95, SecondDiffZ: 80}
	if got := ruleClass(&c, m); got != ClassAnomaly {
		t.Errorf("textbook single anomaly classified %v", got)
	}
}

func TestRuleClassCollectiveAnomaly(t *testing.T) {
	m := med(population())
	c := Candidate{Magnitude: 0.004, Correlation: 0.02, Variance: 0.6,
		SecondDiffZ: 40, LeftExtent: 0, RightExtent: 7}
	if got := ruleClass(&c, m); got != ClassAnomaly {
		t.Errorf("collective anomaly classified %v", got)
	}
}

func TestRuleClassChangePoint(t *testing.T) {
	m := med(population())
	c := Candidate{Magnitude: 0.03, Correlation: 0.05, Variance: 0.05,
		SecondDiffZ: 60, LeftExtent: 0, RightExtent: 50, Asymmetry: 1}
	if got := ruleClass(&c, m); got != ClassChange {
		t.Errorf("level shift classified %v", got)
	}
}

func TestRuleClassNormalBlip(t *testing.T) {
	m := med(population())
	// One-sided but weak second difference: a noise blip, not a shift.
	c := Candidate{Magnitude: 0.004, Correlation: 0.4, Variance: 0.05,
		SecondDiffZ: 4, LeftExtent: 0, RightExtent: 8}
	if got := ruleClass(&c, m); got != ClassNormal {
		t.Errorf("noise blip classified %v", got)
	}
}

func TestRuleClassSeasonalTurnNotAnomaly(t *testing.T) {
	m := med(population())
	// Moderate variance but weak z and common pattern: a seasonal turn.
	c := Candidate{Magnitude: 0.004, Correlation: 0.5, Variance: 0.4,
		SecondDiffZ: 4, LeftExtent: 3, RightExtent: 3}
	if got := ruleClass(&c, m); got == ClassAnomaly {
		t.Error("seasonal turning point classified as anomaly")
	}
}

func TestRuleClassOversizedPatternNotAnomaly(t *testing.T) {
	m := med(population())
	// Rule 1: a pattern spanning more than 5% of the data is no anomaly.
	c := Candidate{Magnitude: 0.2, Correlation: 0.01, Variance: 0.9, SecondDiffZ: 50}
	if got := ruleClass(&c, m); got == ClassAnomaly {
		t.Error("oversized pattern classified as anomaly")
	}
}

func TestStrongZFloor(t *testing.T) {
	// With few weak candidates, the threshold floors at 6.
	cands := []Candidate{{SecondDiffZ: 1}, {SecondDiffZ: 1.2}}
	if got := strongZ(cands); got != 6 {
		t.Errorf("strongZ floor = %v", got)
	}
	// With the realistic mix, it anchors on the weak quantile, not the
	// (possibly abnormal) majority.
	mixed := population()
	for i := 0; i < 100; i++ {
		mixed = append(mixed, Candidate{SecondDiffZ: 200})
	}
	if got := strongZ(mixed); got > 30 {
		t.Errorf("strongZ dragged up by abnormal majority: %v", got)
	}
}

func TestBootstrapLabelsEmpty(t *testing.T) {
	got := bootstrapLabels(nil)
	if len(got) != 0 {
		t.Errorf("empty candidates produced labels: %v", got)
	}
}
