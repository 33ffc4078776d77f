package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"cabd"
	"cabd/client"
	"cabd/httpapi"
	"cabd/internal/eval"
	"cabd/internal/server"
)

// Serve workload: an in-process server on loopback, driven through the
// public client over at most serveConns connections. Requests alternate
// between a univariate and a d=3 multivariate payload.
const (
	servePool  = 48
	serveN     = 512
	serveDims  = 3
	serveConns = 2
	// serveRate is the open-loop request rate: about a third of the
	// capacity the capacity phase measured on 2 cores when the benchmark
	// was introduced (about 135 requests/s). At half capacity, stalls of
	// a shared host queued enough requests to make the tail's
	// run-to-run spread close to its bound.
	serveRate = 45
	serveWarm = 8
)

// serveInterval is the open-loop spacing between requests.
const serveInterval = time.Second / serveRate

// liveServer pairs a cabd server with its HTTP listener.
type liveServer struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

func startServer() (*liveServer, error) {
	srv, err := server.New(server.Config{Workers: serveConns, JanitorEvery: -1})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{srv: srv, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.http.Serve(ln) }()
	return ls, nil
}

// stop shuts the listener down, drains the server and waits for the
// serving goroutine.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = ls.http.Shutdown(ctx) // best effort: the drain below bounds the rest
	<-ls.done
	_ = ls.srv.Drain(ctx)
}

func newClient(url string) *client.Client {
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns,
	}}))
}

// serveWorkload sends one HTTP request per op.
type serveWorkload struct {
	seed  int64
	uni   []uniSeries
	multi []multiPayload
	fp    string
	live  *liveServer
	cl    *client.Client
	next  int64 // next request number, continued across phases

	mu    sync.Mutex // guards the fields below across sender goroutines
	first *firstPass // uni payloads first, then multi payloads
}

func (w *serveWorkload) setup(seed int64, _ bool) error {
	w.seed = seed
	w.uni = genUniPool(seed+3, servePool, serveN)
	w.multi = genMultiPool(seed+3, servePool)
	f := newFingerprinter("serve")
	f.uni(w.uni)
	f.multi(w.multi)
	w.fp = f.sum()
	live, err := startServer()
	if err != nil {
		return err
	}
	w.live = live
	w.cl = newClient(live.url)
	w.first = newFirstPass(2 * servePool)
	warm := &phase{}
	for k := 0; k < serveWarm; k++ {
		w.request(int64(k), warm)
	}
	w.next = serveWarm
	if warm.failed > 0 {
		return fmt.Errorf("serve warm-up: %s", warm.errors[0])
	}
	return nil
}

func (w *serveWorkload) fingerprint() string      { return w.fp }
func (w *serveWorkload) recorder() *cabd.Recorder { return w.live.srv.Recorder() }

func (w *serveWorkload) close() {
	if w.live != nil {
		w.live.stop()
		w.live = nil
	}
}

// payload returns request k's input: its first-pass slot, its length in
// points and whether it is multivariate.
func (w *serveWorkload) payload(k int64) (slot, points int, isMulti bool) {
	i := int(k/2) % servePool
	if k%2 == 0 {
		return i, serveN, false
	}
	return servePool + i, serveDims * serveN, true
}

// request sends request k and checks the reply, recording a failure in
// p. It returns when the reply was decoded.
func (w *serveWorkload) request(k int64, p *phase) time.Time {
	slot, points, isMulti := w.payload(k)
	var resp *httpapi.DetectResponse
	var err error
	if isMulti {
		resp, err = w.cl.DetectMulti(context.Background(), w.multi[slot-servePool].Dims, nil)
	} else {
		resp, err = w.cl.Detect(context.Background(), w.uni[slot].Values, nil)
	}
	end := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	p.attempted++
	p.runs++
	if err == nil {
		v := fromWire(resp)
		p.detections += v.count()
		if err = v.check(serveN); err == nil {
			err = w.first.record(slot, v)
		}
	}
	if err != nil {
		var serr *httpapi.StatusError
		if errors.As(err, &serr) && serr.IsSaturated() {
			err = fmt.Errorf("request %d shed: %w", k, err)
		}
		p.fail(err)
		return end
	}
	p.points += int64(points)
	return end
}

// measure runs the open-loop latency phase: requests due at serveRate,
// each timed from when it was due. Latencies are classed by endpoint
// (0 univariate, 1 multivariate).
func (w *serveWorkload) measure(d time.Duration, tr *tracer) *phase {
	p := &phase{}
	count := int(d.Seconds() * serveRate)
	base := w.next
	w.next += int64(count)
	t0 := time.Now()
	reqs := openLoop(wallClock{}, t0, serveInterval, count, serveConns,
		func(k int) time.Time { return w.request(base+int64(k), p) })
	p.wall = time.Since(t0)
	for k, r := range reqs {
		op := base + int64(k)
		_, _, isMulti := w.payload(op)
		p.lat = append(p.lat, r.Latency())
		p.class = append(p.class, int(op%2))
		p.lags = append(p.lags, r.Lag())
		root := tr.add("request", 0, op, r.Due, r.Latency())
		name := "client.Detect"
		if isMulti {
			name = "client.DetectMulti"
		}
		tr.add(name, root, op, r.Start, r.End.Sub(r.Start))
	}
	return p
}

// capacity runs serveConns closed-loop senders for d.
func (w *serveWorkload) capacity(d time.Duration) *phase {
	p := &phase{}
	base := w.next
	t0 := time.Now()
	n := capacityLoop(wallClock{}, d, serveConns, func(k int) { w.request(base+int64(k), p) })
	p.wall = time.Since(t0)
	w.next += int64(n)
	return p
}

func (w *serveWorkload) finish(p *phase) float64 {
	for slot, v := range w.first.verdicts {
		if v == nil {
			w.request(w.requestFor(slot), p)
		}
	}
	w.request(0, p)
	w.request(1, p)
	var acc prf
	for slot, v := range w.first.verdicts {
		if v == nil {
			continue // its request failed, already counted
		}
		var m eval.PRF
		if slot < servePool {
			m = eval.Match(v.indices(), w.uni[slot].Truth, uniTol)
		} else {
			m = eval.Match(v.indices(), w.multi[slot-servePool].Truth, multiTol)
		}
		acc.add(m.TP, m.FP, m.FN)
	}
	return acc.f1()
}

// requestFor returns a request number whose payload is slot.
func (w *serveWorkload) requestFor(slot int) int64 {
	if slot < servePool {
		return int64(2 * slot)
	}
	return int64(2*(slot-servePool) + 1)
}

func (w *serveWorkload) liveHeapMB() float64 { return float64(heapAfterGC()) / mb }

func (w *serveWorkload) probes() probeInputs {
	return probeInputs{uni: w.uni[:8], multi: w.multi[:4], stream: genStreamProbe(w.seed)}
}
