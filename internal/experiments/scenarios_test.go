package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cabd/internal/faultgen"
	"cabd/internal/scenario"
	"cabd/internal/synth"
)

// tinyScenarioConfig is one fault kind at both channel counts on a
// short carrier — enough to drive every algorithm end to end in
// seconds.
func tinyScenarioConfig() ScenarioConfig {
	return ScenarioConfig{Grid: scenario.Grid{
		Kinds:      []faultgen.Kind{faultgen.KindExtreme},
		Families:   []synth.Family{synth.FamilyFlat},
		Channels:   []int{1, 3},
		Severities: []scenario.Severity{scenario.Mild},
		N:          300,
	}}
}

func TestScenarioBenchShape(t *testing.T) {
	res := ScenarioBench(tinyScenarioConfig())
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2 (d=1 and d=3)", len(res.Cells))
	}
	// CABD + 7 unsupervised + 8 supervised + PELT = 17 algorithms, in
	// the same order on every cell and in the summary.
	const algos = 17
	if len(res.Summary) != algos {
		t.Fatalf("summary has %d algorithms, want %d", len(res.Summary), algos)
	}
	for _, c := range res.Cells {
		if len(c.Scores) != algos {
			t.Errorf("cell %s has %d scores, want %d", c.Cell, len(c.Scores), algos)
		}
		if c.Scores[0].Algorithm != "CABD" {
			t.Errorf("cell %s first algorithm = %s, want CABD", c.Cell, c.Scores[0].Algorithm)
		}
		if c.Truth == 0 {
			t.Errorf("cell %s has no ground truth", c.Cell)
		}
	}
	// Isolated extreme spikes on a flat carrier are CABD's home turf:
	// it must land at least one true positive per cell.
	for _, c := range res.Cells {
		if c.Scores[0].TP == 0 {
			t.Errorf("cell %s: CABD found no true onset (dets=%d)", c.Cell, c.Scores[0].Detections)
		}
	}
}

func TestScenarioBenchDeterministic(t *testing.T) {
	a := ScenarioBench(tinyScenarioConfig())
	b := ScenarioBench(tinyScenarioConfig())
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Error("two runs of the same grid differ")
	}
}

func TestScenariosJSONAndPrint(t *testing.T) {
	res := ScenarioBench(tinyScenarioConfig())
	path := filepath.Join(t.TempDir(), "scen.json")
	if err := WriteScenariosJSON(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ScenarioBenchResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("written JSON does not parse: %v", err)
	}
	if len(back.Cells) != len(res.Cells) {
		t.Errorf("round-trip lost cells: %d != %d", len(back.Cells), len(res.Cells))
	}
	var buf bytes.Buffer
	PrintScenarios(&buf, res)
	out := buf.String()
	for _, want := range []string{"CABD", "PELT", "extreme/flat/d1/mild"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q:\n%s", want, out)
		}
	}
}
