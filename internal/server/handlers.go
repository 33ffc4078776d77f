package server

import (
	"net/http"

	"cabd"
	"cabd/httpapi"
)

// handleDetect runs one unsupervised detection under a pool slot.
// The request deadline (options.timeout_ms, clamped) bounds the run,
// its wait for the slot included, and arms the detector's graceful
// degradation; a full queue sheds with 429 + Retry-After.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req httpapi.DetectRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	s.detect(w, r, req.Options, [][]float64{req.Series})
}

// handleDetectMulti runs one unsupervised multivariate detection: the
// request carries d equal-length channels, the detector runs the joint
// d-channel pipeline (cross-channel correlation feature, collective
// merging), and the reply is the shared DetectResponse shape with time
// indices into the submitted channels.
func (s *Server) handleDetectMulti(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req httpapi.MultiDetectRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.Channels) == 0 {
		s.writeError(w, http.StatusBadRequest, "channels is empty")
		return
	}
	s.detect(w, r, req.Options, req.Channels)
}

// detect runs one unsupervised detection over chans under a pool slot
// and writes the reply: one channel is a univariate series, more are a
// multivariate one.
func (s *Server) detect(w http.ResponseWriter, r *http.Request, wire *httpapi.DetectOptions, chans [][]float64) {
	opts, err := parseOptions(wire)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, opts)
	defer cancel()
	det := s.multiDetectorFor(opts)
	var res *cabd.Result
	var detErr error
	if perr := s.pool.run(ctx, func() {
		res, detErr = det.DetectCtx(ctx, chans)
	}); perr != nil {
		detErr = perr
	}
	if detErr != nil {
		s.writeFailure(w, detErr)
		return
	}
	s.writeJSON(w, http.StatusOK, toWire(res))
}

// handleDetectBatch runs a whole series set through DetectBatchCtx
// under a single pool slot (the batch fans out over its own internal
// workers; admission control here is per request, so one giant batch
// cannot starve the queue accounting).
func (s *Server) handleDetectBatch(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req httpapi.BatchDetectRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	opts, err := parseOptions(req.Options)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, opts)
	defer cancel()
	det := s.detectorFor(opts)
	var results []*cabd.Result
	var errs []error
	if perr := s.pool.run(ctx, func() {
		results, errs = det.DetectBatchCtx(ctx, req.SeriesSet)
	}); perr != nil {
		s.writeFailure(w, perr)
		return
	}
	out := httpapi.BatchDetectResponse{
		Results: make([]httpapi.DetectResponse, len(results)),
		Errors:  make([]string, len(results)),
	}
	for i, res := range results {
		out.Results[i] = *toWire(res)
		if i < len(errs) && errs[i] != nil {
			out.Errors[i] = errs[i].Error()
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}
