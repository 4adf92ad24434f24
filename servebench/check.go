package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"rotary/internal/serve"
)

// checkVirtual compares the server's virtual clock with the seeded
// schedule: it must have moved by exactly the acked advances' seconds
// (every step is a whole number of seconds, so the sum is exact). It
// returns the virtual seconds the run advanced.
func checkVirtual(w workloadSpec, cl *serve.Client, start, scheduled float64) (float64, error) {
	if w.Server == "router" {
		resp, err := cl.Do(serve.Message{Op: "shards"})
		if err != nil {
			return 0, fmt.Errorf("virtual clock: shards: %v", err)
		}
		for _, sh := range resp.Shards {
			if got := sh.VirtualNow - start; got != scheduled {
				return got, fmt.Errorf("virtual clock: shard %d advanced %gs, schedule says %gs", sh.Index, got, scheduled)
			}
		}
		return scheduled, nil
	}
	resp, err := cl.Do(serve.Message{Op: "stats"})
	if err != nil {
		return 0, fmt.Errorf("virtual clock: stats: %v", err)
	}
	if got := resp.VirtualNow - start; got != scheduled {
		return got, fmt.Errorf("virtual clock: advanced %gs, schedule says %gs", got, scheduled)
	}
	return scheduled, nil
}

// checkStatuses asks for the status of every acked submit, each
// connection its own, and reports any that does not answer with its id.
func checkStatuses(cls []*serve.Client, runs []*connRun) []string {
	var mu sync.Mutex
	var bad []string
	var wg sync.WaitGroup
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, seq := range runs[c].acked {
				id := submitID(runs[c].seq.conn, int(seq))
				resp, err := cls[c].Do(serve.Message{Op: "status", ID: id})
				if err == nil && resp.OK && resp.ID == id {
					continue
				}
				mu.Lock()
				bad = append(bad, fmt.Sprintf("status %s: err=%v ok=%v id=%q code=%s", id, err, resp.OK, resp.ID, resp.Code))
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if len(bad) > 5 {
		bad = append(bad[:5], fmt.Sprintf("... and %d more status failures", len(bad)-5))
	}
	return bad
}

// checkJournals replays every state directory read-only: each acked
// job must be there, and the journal must hold exactly the seeded
// history plus every submit the server accepted or refused.
func checkJournals(dirs []string, history int, runs []*connRun, refused int) []string {
	if len(dirs) == 0 {
		return nil
	}
	jobs := map[string]bool{}
	for _, dir := range dirs {
		rec, err := serve.ReplayJournal(dir)
		if err != nil {
			return []string{fmt.Sprintf("replay %s: %v", dir, err)}
		}
		for _, j := range rec.Jobs {
			jobs[j.ID] = true
		}
	}
	var bad []string
	acked := 0
	for _, r := range runs {
		for _, seq := range r.acked {
			acked++
			if id := submitID(r.seq.conn, int(seq)); !jobs[id] {
				bad = append(bad, "journal replay lacks acked job "+id)
			}
		}
	}
	if len(bad) > 5 {
		bad = append(bad[:5], fmt.Sprintf("... and %d more", len(bad)-5))
	}
	if want := history + acked + refused; len(jobs) != want {
		bad = append(bad, fmt.Sprintf("journal replay holds %d jobs, want %d (history %d + acked %d + refused %d)",
			len(jobs), want, history, acked, refused))
	}
	return bad
}

// writeTrace writes the traced pass's spans as JSON lines: one per
// client op, disk operation and Assign call.
func writeTrace(path string, runs []*connRun, rec *recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range runs {
		for _, s := range r.samples {
			enc.Encode(map[string]any{"layer": "client", "conn": r.seq.conn, "req": s.idx, "op": s.kind.String(),
				"ok": s.ok, "sched_ns": s.sched, "sent_ns": s.sent, "reply_ns": s.done})
		}
	}
	for _, s := range rec.disk {
		enc.Encode(map[string]any{"layer": "disk", "op": diskOpNames[s.op], "class": diskClassNames[s.class], "bytes": s.bytes,
			"start_ns": s.start, "end_ns": s.end})
	}
	for _, s := range rec.assign {
		enc.Encode(map[string]any{"layer": "arbiter", "pending": s.pending, "running": s.running,
			"start_ns": s.start, "end_ns": s.end})
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
