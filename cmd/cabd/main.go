// Command cabd detects anomalies and change points in a univariate time
// series read from a CSV file (one value per line, or the last field of
// each comma-separated row; lines starting with '#' are skipped).
//
// Usage:
//
//	cabd [flags] series.csv
//
// With -interactive the detector runs the paper's active-learning loop,
// prompting on stdin for the label of each queried point:
//
//	$ cabd -interactive readings.csv
//	point 421 (value 63.20): [a]nomaly / [c]hange / [n]ormal?
//
// Dirty input (NaN, ±Inf, absurd magnitudes) is sanitized before
// detection; -sanitize picks the policy (interpolate, drop, reject) and a
// repair summary is reported on stderr. -timeout bounds the whole run —
// under deadline pressure the detector degrades to its fast KNN scoring
// strategy rather than dying.
//
// Output is one line per detection: index, kind, subtype, confidence.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"cabd"
	"cabd/internal/dataio"
)

func main() {
	interactive := flag.Bool("interactive", false, "run active learning, prompting for labels on stdin")
	multiCol := flag.Bool("multi", false, "treat every numeric column as one dimension of a multivariate series")
	confidence := flag.Float64("confidence", 0.8, "required detection confidence (γ)")
	maxQueries := flag.Int("max-queries", 50, "label budget for -interactive")
	rangeFrac := flag.Float64("range", 0.05, "INN search-range prune as a fraction of the series")
	sanitizeFlag := flag.String("sanitize", "interpolate", "bad-value policy: interpolate, drop or reject")
	timeout := flag.Duration("timeout", 0, "overall deadline (e.g. 30s); 0 means none")
	metrics := flag.Bool("metrics", false, "print pipeline metrics (stage timings + Prometheus text) on stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cabd [flags] series.csv\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	policy, err := cabd.ParseSanitizePolicy(*sanitizeFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cabd: %v\n", err)
		os.Exit(2)
	}
	opts := cabd.Options{
		Confidence: *confidence,
		MaxQueries: *maxQueries,
		RangeFrac:  *rangeFrac,
		Sanitize:   policy,
	}
	var rec *cabd.Recorder
	if *metrics {
		rec = cabd.NewRecorder()
		opts.Obs = rec
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	dims, err := readDims(flag.Arg(0), *multiCol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cabd: %v\n", err)
		os.Exit(1)
	}
	det := cabd.NewMulti(opts)
	var res *cabd.Result
	if *interactive {
		stdin := bufio.NewReader(os.Stdin)
		res, err = det.DetectInteractiveCtx(ctx, dims, func(i int) cabd.Label {
			return prompt(stdin, i, dims[0][i])
		})
		if err == nil {
			fmt.Printf("# %d labels provided\n", res.Queries)
		}
	} else {
		res, err = det.DetectCtx(ctx, dims)
	}
	if err != nil {
		fail(res, err)
	}
	report(res)
	for _, d := range res.Anomalies {
		fmt.Printf("%d\tanomaly\t%s\t%.2f\n", d.Index, d.Subtype, d.Confidence)
	}
	for _, d := range res.ChangePoints {
		fmt.Printf("%d\tchange\t%s\t%.2f\n", d.Index, d.Subtype, d.Confidence)
	}
	if rec != nil {
		for stage, secs := range res.Stages.Seconds() {
			fmt.Fprintf(os.Stderr, "# stage %s: %.6fs\n", stage, secs)
		}
		rec.WritePrometheus(os.Stderr)
	}
}

// readDims reads the series at path: one channel, or with multi every
// numeric column as one dimension. The detector treats one channel as
// the univariate series it is.
func readDims(path string, multi bool) ([][]float64, error) {
	if !multi {
		values, err := dataio.ReadValuesFile(path)
		return [][]float64{values}, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dims, err := dataio.ReadMulti(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return dims, nil
}

// report surfaces sanitization repairs and degradation on stderr, so
// piping detections to a file still shows what happened to the input.
func report(res *cabd.Result) {
	if rep := res.Sanitize; rep != nil && rep.Bad() > 0 {
		fmt.Fprintf(os.Stderr, "# sanitize: %s\n", rep)
	}
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "# degraded to %s scoring: %s\n", res.Strategy, res.DegradeReason)
	}
}

// fail reports a detection error, including any sanitize context attached
// to the partial result, and exits.
func fail(res *cabd.Result, err error) {
	if res != nil && res.Sanitize != nil {
		fmt.Fprintf(os.Stderr, "# sanitize: %s\n", res.Sanitize)
	}
	fmt.Fprintf(os.Stderr, "cabd: %v\n", err)
	os.Exit(1)
}

func prompt(r *bufio.Reader, i int, v float64) cabd.Label {
	for {
		fmt.Fprintf(os.Stderr, "point %d (value %.4g): [a]nomaly / [c]hange / [n]ormal? ", i, v)
		line, err := r.ReadString('\n')
		if err != nil {
			return cabd.Normal
		}
		switch strings.ToLower(strings.TrimSpace(line)) {
		case "a", "anomaly":
			return cabd.SingleAnomaly
		case "c", "change":
			return cabd.ChangePoint
		case "n", "normal", "":
			return cabd.Normal
		}
	}
}
