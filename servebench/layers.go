package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Counter names the per-layer metrics read from the server's and the
// shards' obs registries.
const (
	ctrBatches     = "rotary_serve_ingress_batches_total"
	ctrBatchedReqs = "rotary_serve_ingress_requests_total"
	ctrOverloaded  = "rotary_serve_overloaded_total"
	ctrEpochs      = "rotary_aqp_epochs_total"
	ctrJournalRecs = "rotary_serve_journal_records_total"
	ctrCompactions = "rotary_serve_journal_compactions_total"
)

var servingCounters = []string{ctrBatches, ctrBatchedReqs, ctrOverloaded, ctrEpochs, ctrJournalRecs, ctrCompactions}

func forwardsCounter(shard int) string {
	return fmt.Sprintf("rotary_router_forwards_total{shard=%q}", fmt.Sprint(shard))
}

// counters is a snapshot of every counter the layers read.
type counters struct {
	serving  map[string]float64 // summed over the serving registries
	forwards []float64          // per shard (router only)
	admitted struct{ submitted, rejected int }
	ckptWr   int
}

func (st *stack) snapshot() counters {
	c := counters{serving: map[string]float64{}}
	for _, reg := range st.regs {
		for _, name := range servingCounters {
			v, _ := reg.Value(name)
			c.serving[name] += v
		}
	}
	if st.routerReg != nil {
		for i := range st.regs {
			v, _ := st.routerReg.Value(forwardsCounter(i))
			c.forwards = append(c.forwards, v)
		}
	}
	for _, ctrl := range st.ctrls {
		s := ctrl.Stats()
		c.admitted.submitted += s.Submitted
		c.admitted.rejected += s.Rejected
	}
	for _, s := range st.stores {
		w, _, _, _ := s.Stats()
		c.ckptWr += w
	}
	return c
}

// journalBytes sums the journal segment files under the state dirs.
func (st *stack) journalBytes() float64 {
	var total int64
	for _, dir := range st.journalDirs {
		matches, _ := filepath.Glob(filepath.Join(dir, "serve.journal*"))
		for _, m := range matches {
			if fi, err := os.Stat(m); err == nil && !strings.HasSuffix(m, ".tmp") {
				total += fi.Size()
			}
		}
	}
	return float64(total)
}

// attribution splits each decorator span's time among the client spans
// it overlaps. Time covered by several client spans is split evenly;
// time covered by none is unattributed.
type attribution struct {
	attributed   [][]int64 // per connection, per sample (ns)
	unattributed int64
}

type clip struct {
	conn, i int
	lo, hi  int64
}

func attribute(runs []*connRun, decor []span) attribution {
	a := attribution{attributed: make([][]int64, len(runs))}
	for c, r := range runs {
		a.attributed[c] = make([]int64, len(r.samples))
	}
	var clips []clip
	var pts []int64
	for _, d := range decor {
		clips = clips[:0]
		pts = append(pts[:0], d.start, d.end)
		for c, r := range runs {
			ss := r.samples
			j := sort.Search(len(ss), func(j int) bool { return ss[j].done > d.start })
			for ; j < len(ss) && ss[j].sent < d.end; j++ {
				lo, hi := max(d.start, ss[j].sent), min(d.end, ss[j].done)
				if hi > lo {
					clips = append(clips, clip{c, j, lo, hi})
					pts = append(pts, lo, hi)
				}
			}
		}
		if len(clips) == 0 {
			a.unattributed += d.dur()
			continue
		}
		sort.Slice(pts, func(x, y int) bool { return pts[x] < pts[y] })
		for k := 1; k < len(pts); k++ {
			p0, p1 := pts[k-1], pts[k]
			if p1 == p0 {
				continue
			}
			n := int64(0)
			for _, cl := range clips {
				if cl.lo <= p0 && cl.hi >= p1 {
					n++
				}
			}
			if n == 0 {
				a.unattributed += p1 - p0
				continue
			}
			for _, cl := range clips {
				if cl.lo <= p0 && cl.hi >= p1 {
					a.attributed[cl.conn][cl.i] += (p1 - p0) / n
				}
			}
		}
	}
	return a
}

// selfMs is the mean self time, in ms, of the OK samples keep selects:
// the client span minus the decorator time attributed to it.
func (a attribution) selfMs(runs []*connRun, keep func(sample) bool) float64 {
	var xs []float64
	for c, r := range runs {
		for i, s := range r.samples {
			if s.ok && keep(s) {
				xs = append(xs, float64(s.done-s.sent-a.attributed[c][i])/1e6)
			}
		}
	}
	return mean(xs)
}

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	w            workloadSpec
	runs         []*connRun
	rec          *recorder
	before       counters
	after        counters
	phase        span // the measured phase on the recorder's clock
	wallSecs     float64
	acked        float64
	advances     float64
	virtualSecs  float64
	journalBytes float64
	replaySecs   float64
}

// layerMetrics computes every per-layer metric whose layer runs in the
// workload.
func layerMetrics(in layerInputs) []metric {
	var out []metric
	add := func(name, unit string, v float64, n int) {
		out = append(out, metric{name: name, unit: unit, value: v, n: n})
	}
	d := func(name string) float64 { return in.after.serving[name] - in.before.serving[name] }

	var late []float64
	for _, r := range in.runs {
		for _, s := range r.samples {
			late = append(late, float64(s.sent-s.sched)/1e6)
		}
	}
	if v, ok := percentile(late, 0.99); ok {
		add("gen.late_p99_ms", "ms", v, len(late))
	}

	batches := d(ctrBatches)
	add("serve.batch_mean", "count", ratio(d(ctrBatchedReqs), batches), int(batches))
	add("serve.overloaded", "count", d(ctrOverloaded), 0)
	add("admission.submitted", "count", float64(in.after.admitted.submitted-in.before.admitted.submitted), 0)
	add("admission.rejected", "count", float64(in.after.admitted.rejected-in.before.admitted.rejected), 0)

	// Decorator spans inside the measured phase.
	inPhase := func(s span) bool { return s.start >= in.phase.start && s.end <= in.phase.end }
	var assignUs, pending, live []float64
	var assignBusy int64
	var decor []span
	for _, s := range in.rec.assign {
		if !inPhase(s.span) {
			continue
		}
		assignUs = append(assignUs, float64(s.dur())/1e3)
		pending = append(pending, float64(s.pending))
		live = append(live, float64(s.pending+s.running))
		assignBusy += s.dur()
		decor = append(decor, s.span)
	}
	calls := len(assignUs)
	add("arbiter.assign_calls", "count", float64(calls), calls)
	if v, ok := percentile(assignUs, 0.5); ok {
		add("arbiter.assign_p50_us", "us", v, calls)
	}
	if v, ok := percentile(assignUs, 0.99); ok {
		add("arbiter.assign_p99_us", "us", v, calls)
	}
	add("arbiter.busy_frac", "fraction", float64(assignBusy)/1e9/in.wallSecs, calls)
	add("arbiter.pending_mean", "count", mean(pending), calls)

	var fsyncUs []float64
	var syncs, diskBusy int64
	var bytes [numDiskClasses]float64
	var opens [numDiskClasses]float64
	for _, s := range in.rec.disk {
		if !inPhase(s.span) {
			continue
		}
		decor = append(decor, s.span)
		diskBusy += s.dur()
		bytes[s.class] += float64(s.bytes)
		switch s.op {
		case diskOpen:
			opens[s.class]++
		case diskSync:
			fsyncUs = append(fsyncUs, float64(s.dur())/1e3)
			syncs++
		case diskSyncDir:
			syncs++
		}
	}
	att := attribute(in.runs, decor)

	add("engine.epochs", "count", d(ctrEpochs), 0)
	add("engine.live_jobs_mean", "count", mean(live), calls)
	add("engine.self_ms_per_advance", "ms", att.selfMs(in.runs, func(s sample) bool { return s.kind == opAdvance }), int(in.advances))
	add("engine.virtual_s", "s", in.virtualSecs, int(in.advances))

	add("ckpt.writes_per_advance", "count", ratio(float64(in.after.ckptWr-in.before.ckptWr), in.advances), int(in.advances))
	add("ckpt.frame_bytes", "bytes", ratio(bytes[classCkpt], opens[classCkpt]), int(opens[classCkpt]))

	// Without a journal there are no compactions and no journal bytes.
	add("journal.compactions_per_submit", "count", ratio(d(ctrCompactions), in.acked), int(in.acked))
	add("journal.size_bytes", "bytes", in.journalBytes, 0)
	if in.w.Server != "memory" {
		appendSyncs := 0.0
		for _, s := range in.rec.disk {
			if inPhase(s.span) && s.op == diskSync && s.class == classAppend {
				appendSyncs++
			}
		}
		add("journal.records_per_sync", "count", ratio(d(ctrJournalRecs), appendSyncs), int(appendSyncs))
		add("journal.replay_s", "s", in.replaySecs, 0)
	}

	add("disk.fsyncs_per_submit", "count", ratio(float64(syncs), in.acked), int(in.acked))
	if v, ok := percentile(fsyncUs, 0.5); ok {
		add("disk.fsync_p50_us", "us", v, len(fsyncUs))
	}
	for c := diskClass(0); c < numDiskClasses; c++ {
		add("disk.write_bytes_per_submit."+diskClassNames[c], "bytes", ratio(bytes[c], in.acked), int(in.acked))
	}
	add("disk.busy_frac", "fraction", float64(diskBusy)/1e9/in.wallSecs, 0)

	if in.w.Server == "router" {
		var fw []float64
		maxFw := 0.0
		for i := range in.after.forwards {
			f := in.after.forwards[i] - in.before.forwards[i]
			fw = append(fw, f)
			maxFw = max(maxFw, f)
		}
		add("router.forwards_skew", "ratio", ratio(maxFw, mean(fw)), len(fw))
		add("router.shard_batch_mean", "count", ratio(d(ctrBatchedReqs), batches), int(batches))
		add("router.self_ms_per_op", "ms", att.selfMs(in.runs, func(sample) bool { return true }), 0)
	}
	add("trace.unattributed_ms", "ms", float64(att.unattributed)/1e6, 0)
	return out
}
