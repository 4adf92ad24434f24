package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rotary/internal/serve"
)

// clientTimeout bounds one round trip. Clients make one attempt per op
// and never retry, so every error or refusal is counted, not absorbed.
const clientTimeout = 10 * time.Second

// sample is one client op: its index in the connection's op list, and
// when it was due, sent and answered, in nanoseconds since the run's
// base time.
type sample struct {
	idx               int32
	kind              opKind
	ok                bool
	sched, sent, done int64
}

// latencyMs is the op's latency, timed from when it was due, so a stall
// is charged to every op queued behind it.
func (s sample) latencyMs() float64 { return float64(s.done-s.sched) / 1e6 }

// connRun is one connection's share of the measured phase.
type connRun struct {
	seq     *opSeq
	samples []sample
	// acked lists the seqs of the connection's OK submits; refused counts
	// submits a server journals although it refused them.
	acked   []int32
	refused int
	// failures counts failed ops by cause (error text or reply code).
	failures map[string]int
	// exhausted is set when the op list ran out before the phase ended.
	exhausted bool
}

func newClients(w workloadSpec, socket string, n int) ([]*serve.Client, error) {
	var cls []*serve.Client
	for i := 0; i < n; i++ {
		cl, err := serve.NewClient(serve.ClientConfig{
			Socket:         socket,
			Codec:          w.Codec,
			Attempts:       1,
			RequestTimeout: clientTimeout,
		})
		if err != nil {
			return nil, err
		}
		cls = append(cls, cl)
	}
	return cls, nil
}

func closeClients(cls []*serve.Client) {
	for _, cl := range cls {
		cl.Close()
	}
}

// ping sends each client's first op, a health probe, and so connects it.
func ping(cls []*serve.Client) error {
	for i, cl := range cls {
		resp, err := cl.Do(serve.Message{Op: "health"})
		if err != nil {
			return fmt.Errorf("client %d: health: %w", i, err)
		}
		if !resp.OK {
			return fmt.Errorf("client %d: health: %s", i, resp.Error)
		}
	}
	return nil
}

// runLoad drives every connection through its op list for dur in an
// open loop at the workload's aggregate rate: connection i sends every
// len(cls)/rate seconds, offset so the connections interleave. It returns
// the per-connection results with the phase's start and the wall time it
// took (until the last reply).
func runLoad(w workloadSpec, cls []*serve.Client, seqs []*opSeq, base time.Time, dur time.Duration) ([]*connRun, time.Time, time.Duration) {
	runs := make([]*connRun, len(cls))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range cls {
		runs[i] = &connRun{seq: seqs[i], failures: map[string]int{}}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			interval := time.Duration(float64(len(cls)) / w.RatePerSec * 1e9)
			offset := time.Duration(float64(i) / w.RatePerSec * 1e9)
			runs[i].drive(cls[i], base, start, dur, interval, offset)
		}(i)
	}
	wg.Wait()
	return runs, start, time.Since(start)
}

// drive sends the connection's ops in order until dur has passed: op k
// is due at start+offset+k*interval and is sent then, or at once if the
// connection is already late.
func (r *connRun) drive(cl *serve.Client, base, start time.Time, dur, interval, offset time.Duration) {
	end := start.Add(dur)
	for k := range r.seq.ops {
		due := start.Add(offset + time.Duration(k)*interval)
		if !due.Before(end) {
			return
		}
		waitUntil(due)
		m := r.seq.message(k)
		sent := time.Now()
		resp, err := cl.Do(m)
		done := time.Now()
		s := sample{idx: int32(k), kind: r.seq.ops[k].kind, sched: int64(due.Sub(base)), sent: int64(sent.Sub(base)), done: int64(done.Sub(base))}
		switch {
		case err != nil:
			r.failures[err.Error()]++
		case !resp.OK:
			r.failures[resp.Code]++
			if s.kind == opSubmit && (resp.Code == serve.CodeAdmissionRefused || resp.Code == serve.CodeTenantQuota) {
				r.refused++
			}
		default:
			s.ok = true
			if s.kind == opSubmit {
				r.acked = append(r.acked, r.seq.ops[k].seq)
			}
		}
		r.samples = append(r.samples, s)
	}
	r.exhausted = true
}

// waitUntil sleeps until shortly before t, then yields until t: a
// timer alone can wake a millisecond late, which an open loop would
// charge to the op as latency.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

const spinWindow = 1200 * time.Microsecond

// tally sums the runs' attempted and failed ops and acked submits.
func tally(runs []*connRun) (attempted, failed, acked, refused int) {
	for _, r := range runs {
		attempted += len(r.samples)
		for _, n := range r.failures {
			failed += n
		}
		acked += len(r.acked)
		refused += r.refused
	}
	return
}

// latencies returns the OK latencies of one op kind, in milliseconds.
func latencies(runs []*connRun, kind opKind) []float64 {
	var out []float64
	for _, r := range runs {
		for _, s := range r.samples {
			if s.ok && s.kind == kind {
				out = append(out, s.latencyMs())
			}
		}
	}
	return out
}
