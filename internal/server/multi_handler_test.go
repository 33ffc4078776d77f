package server_test

import (
	"context"
	"net/http"
	"reflect"
	"testing"

	"cabd/httpapi"
	"cabd/internal/server"
	"cabd/internal/synth"
)

// TestDetectMultiE2E drives POST /v1/detect/multi through the public
// client: a correlated 3-channel series with a cross-channel spike must
// come back with a detection at the spike and index bookkeeping in the
// submitted layout.
func TestDetectMultiE2E(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{})
	dims := synth.CorrelatedDims(synth.FamilyFlat, 7, 900, 3, 0.8)
	for k := range dims {
		dims[k][450] += 25
	}
	res, err := cl.DetectMulti(context.Background(), dims, nil)
	if err != nil {
		t.Fatalf("DetectMulti: %v", err)
	}
	found := false
	for _, d := range res.Anomalies {
		if d.Index >= 448 && d.Index <= 452 {
			found = true
		}
		if d.Index < 0 || d.Index >= 900 {
			t.Fatalf("detection index %d outside the submitted channels", d.Index)
		}
	}
	if !found {
		t.Errorf("cross-channel spike at 450 not detected: %+v", res.Anomalies)
	}
	if res.Strategy == "" {
		t.Error("reply carries no strategy")
	}
}

// TestDetectMultiSanitizes: corrupted values in one channel (huge
// finite magnitudes — JSON cannot carry NaN) are repaired under the
// default policy and reported in the sanitize info.
func TestDetectMultiSanitizes(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{})
	dims := synth.CorrelatedDims(synth.FamilyFlat, 9, 600, 2, 0.8)
	dims[1][100] = 1e300
	dims[1][101] = -1e300
	res, err := cl.DetectMulti(context.Background(), dims, nil)
	if err != nil {
		t.Fatalf("DetectMulti with extremes: %v", err)
	}
	if res.Sanitize == nil || res.Sanitize.Extremes != 2 {
		t.Errorf("sanitize info = %+v, want 2 extremes reported", res.Sanitize)
	}
}

// TestDetectMultiValidation pins the 400 paths: empty channel set,
// ragged channels, bad options.
func TestDetectMultiValidation(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{})
	if _, err := cl.DetectMulti(context.Background(), nil, nil); err == nil {
		t.Error("empty channels accepted")
	} else if serr, ok := err.(*httpapi.StatusError); !ok || serr.Status != http.StatusBadRequest {
		t.Errorf("empty channels error = %v, want 400", err)
	}
	ragged := [][]float64{make([]float64, 100), make([]float64, 99)}
	if _, err := cl.DetectMulti(context.Background(), ragged, nil); err == nil {
		t.Error("ragged channels accepted")
	}
	dims := [][]float64{make([]float64, 100)}
	if _, err := cl.DetectMulti(context.Background(), dims, &httpapi.DetectOptions{Strategy: "bogus"}); err == nil {
		t.Error("bogus strategy accepted")
	} else if serr, ok := err.(*httpapi.StatusError); !ok || serr.Status != http.StatusBadRequest {
		t.Errorf("bogus strategy error = %v, want 400", err)
	}
}

// TestDetectMultiOneChannelMatchesDetect: a one-channel series is a
// univariate series, so /v1/detect/multi with one channel replies
// exactly what /v1/detect replies for the same values — detections,
// confidences, strategy and sanitize block — apart from the stage
// timings.
func TestDetectMultiOneChannelMatchesDetect(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{})
	ctx := context.Background()
	values := synth.YahooLike(4, 500).Values
	values[120] = 1e300 // repaired or dropped by the sanitize pass
	for _, opts := range []*httpapi.DetectOptions{
		nil,
		{Sanitize: "drop", Seed: 5},
		{Strategy: "fixed-knn"},
	} {
		uni, err := cl.Detect(ctx, values, opts)
		if err != nil {
			t.Fatalf("%+v: Detect: %v", opts, err)
		}
		one, err := cl.DetectMulti(ctx, [][]float64{values}, opts)
		if err != nil {
			t.Fatalf("%+v: DetectMulti: %v", opts, err)
		}
		if len(uni.Anomalies)+len(uni.ChangePoints) == 0 || uni.Sanitize == nil || uni.Sanitize.Extremes != 1 {
			t.Fatalf("%+v: the fixture must detect something and repair one extreme: %+v", opts, uni)
		}
		one.StageSeconds, uni.StageSeconds = nil, nil
		if !reflect.DeepEqual(one, uni) {
			t.Errorf("%+v: one-channel multi reply differs\n got %+v\nwant %+v", opts, one, uni)
		}
	}
}
