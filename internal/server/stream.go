package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"cabd"
	"cabd/httpapi"
)

// streamObservation is one NDJSON ingest line: either a bare number or
// {"v": number}.
type streamObservation struct {
	V *float64 `json:"v"`
}

// handleStreamPush ingests NDJSON observations into the stream named by
// the path id, creating it on first use, and answers with the
// detections confirmed during this request. The body is parsed as a
// sequence of JSON values (newline-delimited or whitespace-separated),
// capped by MaxBytesReader; parsing happens before the push takes its
// pool slot, so only the detector work holds one.
func (s *Server) handleStreamPush(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	id := r.PathValue("id")
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()
	dec := json.NewDecoder(body)
	var values []float64
	for line := 0; ; line++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				s.writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
				return
			}
			s.writeError(w, http.StatusBadRequest,
				fmt.Sprintf("observation %d: invalid JSON: %v", line, err))
			return
		}
		v, err := parseObservation(raw)
		if err != nil {
			s.writeError(w, http.StatusBadRequest,
				fmt.Sprintf("observation %d: %v", line, err))
			return
		}
		values = append(values, v)
	}

	res, err := s.streams.push(r.Context(), id, values, s.clock.Now())
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, httpapi.StreamIngestResponse{
		ID:         id,
		Accepted:   res.accepted,
		Total:      res.total,
		Bad:        res.bad,
		Detections: wireStreamDetections(res.dets),
	})
}

// handleStreamClose flushes the stream (final analysis with no trailing
// margin), returns the remaining detections and evicts it.
func (s *Server) handleStreamClose(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	id := r.PathValue("id")
	res, err := s.streams.close(r.Context(), id)
	if err != nil {
		if errors.Is(err, errStreamNotFound) {
			s.writeError(w, http.StatusNotFound, fmt.Sprintf("stream %q not found", id))
			return
		}
		s.writeFailure(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, httpapi.StreamIngestResponse{
		ID:         id,
		Total:      res.total,
		Bad:        res.bad,
		Detections: wireStreamDetections(res.dets),
		Flushed:    true,
	})
}

// parseObservation accepts a bare JSON number or {"v": number}.
func parseObservation(raw json.RawMessage) (float64, error) {
	var v float64
	if err := json.Unmarshal(raw, &v); err == nil {
		return v, nil
	}
	var obj streamObservation
	if err := json.Unmarshal(raw, &obj); err != nil || obj.V == nil {
		return 0, fmt.Errorf("want a number or {\"v\": number}, got %s", raw)
	}
	return *obj.V, nil
}

func wireStreamDetections(dets []cabd.StreamDetection) []httpapi.Detection {
	out := make([]httpapi.Detection, 0, len(dets))
	for _, d := range dets {
		out = append(out, httpapi.Detection{
			Index:      d.Index,
			Subtype:    d.Subtype.String(),
			Confidence: d.Confidence,
			Degraded:   d.Degraded,
		})
	}
	return out
}
