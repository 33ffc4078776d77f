package agent

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func writeFile(t testing.TB, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReadNewValuesCSV: header rows skip, the last field is the value,
// a partial trailing line is left for the next poll.
func TestReadNewValuesCSV(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "cpu.csv")
	writeFile(t, p, "ts,value\n1,10.5\n2,11\n3,12.5")

	vals, off, err := readNewValues(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, []float64{10.5, 11}) {
		t.Fatalf("vals = %v, want [10.5 11] (torn tail unread)", vals)
	}

	// Complete the torn line and append another: reading resumes at off.
	f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n4,13\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	vals, _, err = readNewValues(p, off)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, []float64{12.5, 13}) {
		t.Fatalf("resumed vals = %v, want [12.5 13]", vals)
	}
}

// TestReadNewValuesNDJSON: bare numbers and {"v": n} both parse;
// non-numeric lines skip.
func TestReadNewValuesNDJSON(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "mem.ndjson")
	writeFile(t, p, "1.5\n{\"v\": 2.5}\n{\"note\": \"skip me\"}\n3\n")
	vals, _, err := readNewValues(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, []float64{1.5, 2.5, 3}) {
		t.Fatalf("vals = %v", vals)
	}
}

// TestReadNewValuesRotation: a file shorter than the checkpointed
// offset was rotated, and a negative offset is corrupt — either way
// reading restarts from the top.
func TestReadNewValuesRotation(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "cpu.csv")
	writeFile(t, p, "5\n6\n")
	for _, from := range []int64{1000, -5} {
		vals, off, err := readNewValues(p, from)
		if err != nil {
			t.Fatalf("offset %d: %v", from, err)
		}
		if !reflect.DeepEqual(vals, []float64{5, 6}) || off != 4 {
			t.Fatalf("offset %d: vals = %v, new offset %d; want [5 6] re-read from the top, offset 4", from, vals, off)
		}
	}
}

// TestScanSources: only recognized extensions, sorted, subdirectories
// ignored.
func TestScanSources(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "b.csv"), "")
	writeFile(t, filepath.Join(dir, "a.ndjson"), "")
	writeFile(t, filepath.Join(dir, "notes.txt"), "")
	if err := os.Mkdir(filepath.Join(dir, "sub.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := scanSources(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "a.ndjson"), filepath.Join(dir, "b.csv")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sources = %v, want %v", got, want)
	}
	if streamName(want[0]) != "a" || streamName(want[1]) != "b" {
		t.Fatalf("stream names wrong: %q %q", streamName(want[0]), streamName(want[1]))
	}
}
