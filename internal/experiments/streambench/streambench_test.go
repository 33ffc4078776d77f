package streambench

import (
	"strings"
	"testing"
)

// TestStreamBenchSmoke runs the whole benchmark at tiny scale: the
// checkpoint/resume run must match the uninterrupted run at every
// window, every leg must move points, and the registry leg must finish
// clean.
func TestStreamBenchSmoke(t *testing.T) {
	res := StreamBench(StreamBenchConfig{
		Windows:   []int{32, 64},
		HopsPer:   8,
		Streams:   8,
		PerStream: 96,
		Registry:  6,
		Conc:      2,
	})
	if len(res.Cost) != 2 {
		t.Fatalf("cost rows = %d, want 2", len(res.Cost))
	}
	for _, c := range res.Cost {
		if !c.ResumeEqual {
			t.Errorf("window %d: resumed stream diverged from the uninterrupted one", c.Window)
		}
		if c.UsPerPoint <= 0 || c.FirstHalfUs <= 0 || c.SecondHalfUs <= 0 {
			t.Errorf("window %d: untimed cost row %+v", c.Window, c)
		}
		if c.Detections == 0 {
			t.Errorf("window %d: chaos stream produced no detections", c.Window)
		}
	}
	if res.Scale.Detections == 0 {
		t.Error("scale leg produced no detections")
	}
	if res.Registry.Errors != 0 {
		t.Errorf("registry leg had %d errors", res.Registry.Errors)
	}
	if want := 6 * 6 * 16; res.Registry.Points != want {
		t.Errorf("registry leg accepted %d points, want %d", res.Registry.Points, want)
	}
	if res.Registry.Shed != 0 {
		t.Errorf("registry leg shed %d requests below capacity", res.Registry.Shed)
	}

	var sb strings.Builder
	PrintStream(&sb, res)
	for _, frag := range []string{"us/pt", "resume", "scale:", "registry:"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("rendered benchmark missing %q", frag)
		}
	}
}
