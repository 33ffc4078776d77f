// Command cabd-serve runs the cabd detection service: one-shot and
// batch detection, NDJSON streaming ingest and interactive labeling
// sessions over a JSON HTTP API (see cabd/httpapi for the wire contract
// and internal/server for the implementation).
//
// Operational endpoints: /healthz (liveness), /readyz (readiness,
// 503 while draining), /metrics (Prometheus text) and /debug/vars
// (expvar). SIGINT/SIGTERM triggers a graceful drain: the listener
// stops accepting, in-flight requests finish, sessions are cancelled,
// streams are dropped without a flush and the ingest journal is closed,
// all bounded by -drain-timeout.
//
// Usage:
//
//	cabd-serve -addr :8080
//	cabd-serve -addr 127.0.0.1:0 -portfile /tmp/cabd.port
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cabd"
	"cabd/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		portfile     = flag.String("portfile", "", "write the bound port number to this file once listening")
		workers      = flag.Int("workers", 4, "detector computations that run at once: detects, batches, stream pushes and closes, session rounds")
		queue        = flag.Int("queue", 64, "callers that may wait for a worker before a detect, batch, stream push or close sheds with 429 (waiting session rounds count too)")
		maxBody      = flag.Int64("max-body", 8<<20, "request body cap in bytes")
		timeout      = flag.Duration("timeout", 30*time.Second, "default per-request detection deadline")
		maxTimeout   = flag.Duration("max-timeout", 2*time.Minute, "clamp on client-supplied deadlines")
		maxSessions  = flag.Int("max-sessions", 64, "cap on live interactive sessions")
		maxStreams   = flag.Int("max-streams", 256, "cap on live streaming detectors")
		tenantQuota  = flag.Int("max-streams-per-tenant", 0, "per-tenant cap on live streams (tenant = id prefix before '/'; 0 disables)")
		hopTimeout   = flag.Duration("stream-hop-timeout", 0, "per-hop analysis deadline inside streaming detectors (0 disables)")
		sessionTTL   = flag.Duration("session-ttl", 10*time.Minute, "idle session eviction horizon")
		streamTTL    = flag.Duration("stream-ttl", 10*time.Minute, "idle stream eviction horizon")
		janitorEvery = flag.Duration("janitor-every", 30*time.Second, "idle-eviction sweep period (negative disables the janitor)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
		checkpoint   = flag.String("checkpoint-dir", "", "directory for crash-safe state (ingest journal + session checkpoints); empty disables persistence")
		confidence   = flag.Float64("confidence", 0, "default termination confidence γ (0 keeps the library default)")
		seed         = flag.Int64("seed", 0, "default run seed (0 keeps the library default)")
	)
	flag.Parse()

	opts := cabd.Options{Confidence: *confidence, Seed: *seed}
	srv, err := server.New(server.Config{
		Options:             opts,
		Workers:             *workers,
		QueueDepth:          *queue,
		MaxBodyBytes:        *maxBody,
		DefaultTimeout:      *timeout,
		MaxTimeout:          *maxTimeout,
		MaxSessions:         *maxSessions,
		MaxStreams:          *maxStreams,
		MaxStreamsPerTenant: *tenantQuota,
		StreamHopTimeout:    *hopTimeout,
		SessionTTL:          *sessionTTL,
		StreamTTL:           *streamTTL,
		JanitorEvery:        *janitorEvery,
		CheckpointDir:       *checkpoint,
		Logf:                log.Printf,
		ExpvarName:          "cabd",
	})
	if err != nil {
		log.Fatalf("cabd-serve: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("cabd-serve: listen %s: %v", *addr, err)
	}
	if *portfile != "" {
		port := ln.Addr().(*net.TCPAddr).Port
		if err := os.WriteFile(*portfile, []byte(fmt.Sprintf("%d\n", port)), 0o644); err != nil {
			log.Fatalf("cabd-serve: write portfile: %v", err)
		}
	}
	log.Printf("cabd-serve: listening on %s", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("cabd-serve: %s received, draining (bound %s)", sig, *drainTimeout)
	case err := <-errc:
		log.Fatalf("cabd-serve: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting and finish in-flight requests first, then drain the
	// server's own goroutines (sessions, janitor).
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("cabd-serve: listener shutdown: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		log.Printf("cabd-serve: drain: %v", err)
		os.Exit(1)
	}
	log.Printf("cabd-serve: drained cleanly")
}
