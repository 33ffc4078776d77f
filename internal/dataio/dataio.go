// Package dataio reads and writes the CSV layouts the reproduction's
// tools exchange: plain one-column value lists, and the labeled
// index,value,label,truth layout emitted by cmd/cabd-gen. It also holds
// the crash-safe file writer the server and the agent persist state
// with.
package dataio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cabd/internal/series"
)

// ReadValues parses a value series from r: one value per line, or the
// value column of comma-separated rows (the second field when several
// are present, so cabd-gen output round-trips). Blank lines and lines
// starting with '#' are skipped; header lines before any data are
// tolerated.
func ReadValues(r io.Reader) ([]float64, error) {
	var values []float64
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		raw := strings.TrimSpace(fields[0])
		if len(fields) > 1 {
			raw = strings.TrimSpace(fields[1])
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			if len(values) == 0 {
				continue // header
			}
			return nil, fmt.Errorf("line %d: %q is not a number", lineNo, raw)
		}
		values = append(values, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("no numeric values found")
	}
	return values, nil
}

// ReadValuesFile is ReadValues over a file path.
func ReadValuesFile(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vals, err := ReadValues(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return vals, nil
}

// ReadLabeled parses the full cabd-gen layout (index,value,label,truth)
// into a labeled series. Rows with fewer columns degrade gracefully:
// missing labels default to normal, missing truth to the value.
func ReadLabeled(r io.Reader, name string) (*series.Series, error) {
	s := &series.Series{Name: name}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		if err != nil {
			if len(s.Values) == 0 {
				continue // header
			}
			return nil, fmt.Errorf("line %d: bad value %q", lineNo, fields[1])
		}
		s.Values = append(s.Values, v)
		label := series.Normal
		if len(fields) >= 3 {
			label = parseLabel(strings.TrimSpace(fields[2]))
		}
		s.Labels = append(s.Labels, label)
		truth := v
		if len(fields) >= 4 {
			if tv, err := strconv.ParseFloat(strings.TrimSpace(fields[3]), 64); err == nil {
				truth = tv
			}
		}
		s.Truth = append(s.Truth, truth)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(s.Values) == 0 {
		return nil, fmt.Errorf("no rows found")
	}
	return s, nil
}

// WriteLabeled emits the cabd-gen layout for s.
func WriteLabeled(w io.Writer, s *series.Series) error {
	if _, err := fmt.Fprintf(w, "# %s\nindex,value,label,truth\n", s.Name); err != nil {
		return err
	}
	for i, v := range s.Values {
		truth := v
		if s.Truth != nil {
			truth = s.Truth[i]
		}
		if _, err := fmt.Fprintf(w, "%d,%.6f,%s,%.6f\n", i, v, s.LabelAt(i), truth); err != nil {
			return err
		}
	}
	return nil
}

// WriteMulti emits a d-channel series as CSV: one row per time step
// with a leading index column, one value column per channel
// (index,c0,c1,...). The layout round-trips through ReadMulti, which
// detects and drops the index column. Channels must share one length.
func WriteMulti(w io.Writer, name string, dims [][]float64) error {
	if len(dims) == 0 {
		return fmt.Errorf("no channels")
	}
	n := len(dims[0])
	for k, dim := range dims {
		if len(dim) != n {
			return fmt.Errorf("channel %d has %d points, want %d", k, len(dim), n)
		}
	}
	if _, err := fmt.Fprintf(w, "# %s\n", name); err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString("index")
	for k := range dims {
		fmt.Fprintf(&sb, ",c%d", k)
	}
	if _, err := fmt.Fprintln(w, sb.String()); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		sb.Reset()
		fmt.Fprintf(&sb, "%d", i)
		for k := range dims {
			fmt.Fprintf(&sb, ",%.6f", dims[k][i])
		}
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

func parseLabel(s string) series.Label {
	switch s {
	case "single-anomaly":
		return series.SingleAnomaly
	case "collective-anomaly":
		return series.CollectiveAnomaly
	case "change-point":
		return series.ChangePoint
	default:
		return series.Normal
	}
}

// ReadMulti parses a d-dimensional series from r: each row holds d
// comma-separated values (an optional leading integer index column is
// detected and dropped when every row carries one). All rows must agree
// on the column count. Header lines before any data are tolerated.
func ReadMulti(r io.Reader) ([][]float64, error) {
	var rows [][]float64
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		row := make([]float64, 0, len(fields))
		ok := true
		for _, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				ok = false
				break
			}
			row = append(row, v)
		}
		if !ok {
			if len(rows) == 0 {
				continue // header
			}
			return nil, fmt.Errorf("line %d: non-numeric row", lineNo)
		}
		if len(rows) > 0 && len(row) != len(rows[0]) {
			return nil, fmt.Errorf("line %d: %d columns, want %d", lineNo, len(row), len(rows[0]))
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no numeric rows found")
	}
	// Drop a leading index column when present: integer-valued and
	// strictly increasing by one.
	if len(rows[0]) > 1 {
		isIndex := true
		for i, row := range rows {
			//cabd:lint-ignore floateq an index column holds exact small integers; any rounding means it is data
			if row[0] != float64(i) && row[0] != float64(i+1) {
				isIndex = false
				break
			}
		}
		if isIndex {
			for i := range rows {
				rows[i] = rows[i][1:]
			}
		}
	}
	// Transpose to dimension-major.
	d := len(rows[0])
	dims := make([][]float64, d)
	for k := range dims {
		dims[k] = make([]float64, len(rows))
		for i, row := range rows {
			dims[k][i] = row[k]
		}
	}
	return dims, nil
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory, fsynced, then renamed over path, so a crash mid-write
// leaves either the old file or the new one — never a torn file.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
