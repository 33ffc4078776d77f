package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"cabd"
	"cabd/httpapi"
	"cabd/internal/obs"
	"cabd/internal/series"
)

// wrap is the middleware every endpoint runs behind: request counting,
// a whole-request span into the http_request stage histogram, and panic
// containment — a crashing handler answers 500 with a contained
// *cabd.PanicError instead of killing the process.
func (s *Server) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.rec.Add(obs.CounterHTTPRequests, 1)
		sp := s.rec.StartStage(obs.StageHTTPRequest)
		defer sp.End()
		defer func() {
			if p := recover(); p != nil {
				pe := &cabd.PanicError{Series: -1, Value: p, Stack: debug.Stack()}
				s.rec.Add(obs.CounterPanicsContained, 1)
				// Best effort: if the handler already wrote, this is a
				// no-op on the status line and the client sees a
				// truncated body, which is the honest signal.
				s.writeError(w, http.StatusInternalServerError, pe.Error())
			}
		}()
		h(w, r)
	}
}

// writeJSON renders v with status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection is the client's problem past here
}

// writeError renders the uniform error body.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, httpapi.ErrorResponse{Error: msg})
}

// writeShed renders a 429 backpressure reply advising a back-off of sec
// seconds in Retry-After. Every 429 goes through here, so this is where
// http_shed_total counts.
func (s *Server) writeShed(w http.ResponseWriter, msg string, sec int) {
	s.rec.Add(obs.CounterHTTPShed, 1)
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	s.writeJSON(w, http.StatusTooManyRequests,
		httpapi.ErrorResponse{Error: msg, RetryAfterSeconds: sec})
}

// capRetryAfter is the back-off a count-cap shed advises, in seconds.
// A full queue drains as workers finish, but a stream or session slot
// frees only on a client's close or an idle eviction, so the advice is
// the janitor period, or the idle TTL when no janitor sweeps.
func (s *Server) capRetryAfter(ttl time.Duration) int {
	d := s.cfg.JanitorEvery
	if d <= 0 {
		d = ttl
	}
	return max(1, int((d+time.Second-1)/time.Second))
}

// writeFailure answers a refused or failed computation: a full queue
// and the stream caps shed with 429, anything else takes errStatus's
// status.
func (s *Server) writeFailure(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errSaturated):
		s.writeShed(w, err.Error(), s.pool.retryAfterSeconds())
	case errors.Is(err, errStreamsFull), errors.Is(err, errTenantQuota):
		s.writeShed(w, err.Error(), s.capRetryAfter(s.cfg.StreamTTL))
	default:
		s.writeError(w, errStatus(err), err.Error())
	}
}

// readJSON decodes the request body into v behind a MaxBytesReader cap.
// On failure it has already written the error reply (400, or 413 when
// the cap tripped) and returns false.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		s.writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	return true
}

// detectOptions is the parsed, validated form of httpapi.DetectOptions.
type detectOptions struct {
	hasSanitize bool
	sanitize    cabd.SanitizePolicy
	hasStrategy bool
	strategy    cabd.Strategy
	confidence  float64
	maxQueries  int
	seed        int64
	timeout     time.Duration
}

// parseOptions validates wire options; a nil wire value is a nil parse.
func parseOptions(o *httpapi.DetectOptions) (*detectOptions, error) {
	if o == nil {
		return nil, nil
	}
	out := &detectOptions{
		confidence: o.Confidence,
		maxQueries: o.MaxQueries,
		seed:       o.Seed,
	}
	if o.Sanitize != "" {
		p, err := cabd.ParseSanitizePolicy(o.Sanitize)
		if err != nil {
			return nil, err
		}
		out.hasSanitize, out.sanitize = true, p
	}
	if o.Strategy != "" {
		st, err := parseStrategy(o.Strategy)
		if err != nil {
			return nil, err
		}
		out.hasStrategy, out.strategy = true, st
	}
	if o.Confidence < 0 || o.Confidence > 1 {
		return nil, fmt.Errorf("confidence %v outside (0, 1]", o.Confidence)
	}
	if o.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms %d is negative", o.TimeoutMS)
	}
	out.timeout = time.Duration(o.TimeoutMS) * time.Millisecond
	return out, nil
}

// parseStrategy maps the wire strategy names (the String() forms of
// cabd.Strategy) back to values.
func parseStrategy(s string) (cabd.Strategy, error) {
	for _, st := range []cabd.Strategy{cabd.BinaryINN, cabd.LinearINN, cabd.MutualSetINN, cabd.FixedKNN} {
		if s == st.String() {
			return st, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

// parseLabel maps a wire label to cabd.Label.
func parseLabel(s string) (cabd.Label, error) {
	for _, l := range []cabd.Label{cabd.Normal, cabd.SingleAnomaly, cabd.CollectiveAnomaly, cabd.ChangePoint} {
		if s == l.String() {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown label %q (want one of %v)", s, httpapi.Labels)
}

// parseTruth converts a full-length wire label array into ground-truth
// series labels for the auto-label oracle.
func parseTruth(truth []string, n int) ([]series.Label, error) {
	if len(truth) != n {
		return nil, fmt.Errorf("truth has %d labels for %d points", len(truth), n)
	}
	out := make([]series.Label, n)
	for i, s := range truth {
		l, err := parseLabel(s)
		if err != nil {
			return nil, fmt.Errorf("truth[%d]: %v", i, err)
		}
		out[i] = series.Label(l)
	}
	return out, nil
}

// toWire converts a facade Result to its wire form.
func toWire(res *cabd.Result) *httpapi.DetectResponse {
	if res == nil {
		return &httpapi.DetectResponse{}
	}
	out := &httpapi.DetectResponse{
		Queries:       res.Queries,
		Strategy:      res.Strategy.String(),
		Degraded:      res.Degraded,
		DegradeReason: res.DegradeReason,
		StageSeconds:  res.Stages.Seconds(),
	}
	for _, d := range res.Anomalies {
		out.Anomalies = append(out.Anomalies, wireDetection(d))
	}
	for _, d := range res.ChangePoints {
		out.ChangePoints = append(out.ChangePoints, wireDetection(d))
	}
	if res.Sanitize != nil {
		out.Sanitize = &httpapi.SanitizeInfo{
			Policy:   res.Sanitize.Policy.String(),
			N:        res.Sanitize.N,
			NaNs:     res.Sanitize.NaNs,
			Infs:     res.Sanitize.Infs,
			Extremes: res.Sanitize.Extremes,
			Repaired: res.Sanitize.Repaired,
			Dropped:  res.Sanitize.Dropped,
			Constant: res.Sanitize.Constant,
			TooShort: res.Sanitize.TooShort,
		}
	}
	return out
}

func wireDetection(d cabd.Detection) httpapi.Detection {
	return httpapi.Detection{
		Index:      d.Index,
		Subtype:    d.Subtype.String(),
		Confidence: d.Confidence,
	}
}

// errStatus maps a detection error to its HTTP status: sanitization
// rejections are the client's fault (422), cancellations are deadline
// exhaustion (504), contained panics and everything else are 500.
func errStatus(err error) int {
	var pe *cabd.PanicError
	switch {
	case errors.Is(err, cabd.ErrEmpty), errors.Is(err, cabd.ErrTooShort),
		errors.Is(err, cabd.ErrBadValues), errors.Is(err, cabd.ErrAllBad),
		errors.Is(err, cabd.ErrRagged):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}
