package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop calls unit one at a time until d has passed or unit returns
// the zero time (inputs exhausted). unit reports when the program's
// answer was ready; the generator's lag before op k+1 is the time from
// that moment until op k+1 starts, i.e. the time the benchmark itself
// (checks, bookkeeping) kept the system idle.
func closedLoop(clk clock, d time.Duration, unit func(k int64) (done time.Time)) (ops int64, lags []time.Duration, wall time.Duration) {
	t0 := clk.Now()
	deadline := t0.Add(d)
	var prev time.Time
	for k := int64(0); ; k++ {
		start := clk.Now()
		if !start.Before(deadline) {
			return k, lags, start.Sub(t0)
		}
		if k > 0 {
			lags = append(lags, start.Sub(prev))
		}
		if prev = unit(k); prev.IsZero() {
			return k, lags, clk.Now().Sub(t0)
		}
	}
}

// sent is one open-loop request: when it was due, when it went out and
// when its reply arrived.
type sent struct{ Due, Start, End time.Time }

// Lag is how late the generator sent the request.
func (s sent) Lag() time.Duration { return s.Start.Sub(s.Due) }

// Latency is the request's time from when it was due, so a stall also
// counts against the requests queued behind it.
func (s sent) Latency() time.Duration { return s.End.Sub(s.Due) }

// openLoop sends count requests on a fixed schedule, request k due at
// t0 + k*interval, from `workers` senders. A sender that falls behind
// sends late rather than skipping; the lateness is recorded. send
// returns when the reply arrived, so checks it runs afterwards are not
// timed.
func openLoop(clk clock, t0 time.Time, interval time.Duration, count, workers int, send func(k int) (end time.Time)) []sent {
	out := make([]sent, count)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= count {
					return
				}
				due := t0.Add(time.Duration(k) * interval)
				if wait := due.Sub(clk.Now()); wait > 0 {
					clk.Sleep(wait)
				}
				start := clk.Now()
				out[k] = sent{Due: due, Start: start, End: send(k)}
			}
		}()
	}
	wg.Wait()
	return out
}

// capacityLoop runs `workers` closed-loop senders until d has passed and
// returns how many requests they sent.
func capacityLoop(clk clock, d time.Duration, workers int, send func(k int)) int {
	deadline := clk.Now().Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for clk.Now().Before(deadline) {
				send(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
	return int(next.Load())
}
