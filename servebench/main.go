// Command servebench is the repository's serving benchmark. It starts
// in-process servers with the constructors rotary-serve uses, drives
// them over Unix sockets with serve.Client from two connections in an
// open loop, checks
// the outputs, and prints every metric by name with its unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// holding the end-to-end metrics (-trace 0) or the per-layer metrics of
// a second, traced pass (-trace 1). Run it from the repository root:
//
//	bash servebench/run.sh --workload durable-history --seed 1 --seconds 10 --trace 0
//
// -workload all runs every workload in turn and prints each one's report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rotary/internal/serve"
	"rotary/internal/tpch"
)

// gatedE2E and gatedLayers are the metrics BENCHMARK.json lists; the
// JSON line carries exactly these (TestGatedMetricsMatchBenchmarkJSON
// keeps the lists in step).
var (
	gatedE2E    = []string{"setup_s", "submit_per_s", "heap_mb"}
	gatedLayers = []string{
		"serve.batch_mean", "serve.overloaded", "admission.submitted", "admission.rejected",
		"arbiter.assign_calls", "arbiter.assign_p50_us", "arbiter.busy_frac", "arbiter.pending_mean",
		"engine.epochs", "engine.live_jobs_mean", "engine.self_ms_per_advance", "engine.virtual_s",
		"ckpt.writes_per_advance", "ckpt.frame_bytes",
		"journal.compactions_per_submit", "journal.size_bytes",
		"disk.fsyncs_per_submit", "disk.write_bytes_per_submit.append", "disk.write_bytes_per_submit.compact",
		"disk.write_bytes_per_submit.ckpt", "disk.busy_frac", "trace.unattributed_ms",
		"trace.overhead.submit_per_s", "trace.overhead.submit_p50_ms", "trace.overhead.advance_p50_ms",
	}
)

// metric is one reported figure; n is its sample count (0 for counts
// and single readings).
type metric struct {
	name, unit string
	value      float64
	n          int
}

// passResult is one measured pass over one workload.
type passResult struct {
	e2e       []metric
	layers    []metric
	attempted int
	failed    int
	failures  map[string]int
	// violations lists every output check that failed.
	violations []string
	// runs are the traced pass's client spans, written out at exit.
	runs []*connRun
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name from workloads.json, or all")
		seed     = flag.Uint64("seed", 1, "seed of every op sequence")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
		workdir  = flag.String("workdir", ".bench_build/servebench", "scratch directory for state dirs and sockets (removed at exit)")
		traceOut = flag.String("trace-out", ".bench_build/servebench-traces", "directory the traced pass writes its spans to")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *workdir, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, workdir, traceOut string) error {
	cfg, err := loadConfig()
	if err != nil {
		return err
	}
	var specs []workloadSpec
	if name == "all" {
		specs = cfg.Workloads
	} else {
		w, err := cfg.workload(name)
		if err != nil {
			return err
		}
		specs = []workloadSpec{w}
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be > 0")
	}
	if traceOut, err = filepath.Abs(traceOut); err != nil {
		return err
	}
	// Work inside a private directory so socket paths stay short.
	dir := filepath.Join(workdir, fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer removeAll(dir)
	home, err := os.Getwd()
	if err != nil {
		return err
	}
	if err := os.Chdir(dir); err != nil {
		return err
	}
	defer os.Chdir(home)

	fsync, err := fsyncP50us(".")
	if err != nil {
		return fmt.Errorf("fsync calibration: %w", err)
	}
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d go=%s fsync_p50_us=%.1f conns=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsync, cfg.Conns)

	dur := time.Duration(seconds * float64(time.Second))
	var last passResult
	correct := true
	attempted, failed := 0, 0
	for _, w := range specs {
		fmt.Printf("\n== %s (open loop at %g ops/s, %s policy, %s codec, seed %d, %gs): %s\n", w.Name, w.RatePerSec, w.Policy, w.Codec, seed, seconds, w.Why)
		repeats := cfg.SetupRepeats
		if traced {
			repeats = 1
		}
		res, err := runPass(w, cfg.Conns, seed, dur, repeats, nil, "plain")
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if traced {
			rec := newRecorder(time.Now())
			tres, err := runPass(w, cfg.Conns, seed, dur, 1, rec, "traced")
			if err != nil {
				return fmt.Errorf("%s traced: %w", w.Name, err)
			}
			if err := writeTrace(filepath.Join(traceOut, fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed)), tres.runs, rec); err != nil {
				return err
			}
			res.layers = append(tres.layers, overhead(res.e2e, tres.e2e)...)
			res.violations = append(res.violations, tres.violations...)
			res.attempted += tres.attempted
			res.failed += tres.failed
			for c, n := range tres.failures {
				res.failures[c] += n
			}
		}
		report(res, traced)
		correct = correct && len(res.violations) == 0
		attempted += res.attempted
		failed += res.failed
		last = res
	}

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	gated, from := gatedE2E, last.e2e
	if traced {
		gated, from = gatedLayers, last.layers
	}
	if len(specs) == 1 {
		for _, g := range gated {
			m, ok := find(from, g)
			if !ok {
				return fmt.Errorf("%s: metric %s not measured (too few samples?)", specs[0].Name, g)
			}
			out.Metrics[g] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// overhead reports the tracing overhead: traced minus untraced figures.
func overhead(plain, traced []metric) []metric {
	var out []metric
	for _, name := range []string{"submit_per_s", "submit_p50_ms", "advance_p50_ms"} {
		p, ok1 := find(plain, name)
		t, ok2 := find(traced, name)
		if ok1 && ok2 {
			out = append(out, metric{name: "trace.overhead." + name, unit: p.unit, value: t.value - p.value})
		}
	}
	return out
}

func report(res passResult, traced bool) {
	show := func(title string, ms []metric) {
		fmt.Println(title)
		for _, m := range ms {
			n := ""
			if m.n > 0 {
				n = fmt.Sprintf("n=%d", m.n)
			}
			fmt.Printf("  %-36s %14.4f %-9s %s\n", m.name, m.value, m.unit, n)
		}
	}
	show("end-to-end (untraced pass):", res.e2e)
	if traced {
		show("per-layer (traced pass):", res.layers)
	}
	if len(res.failures) > 0 {
		var causes []string
		for c, n := range res.failures {
			causes = append(causes, fmt.Sprintf("%s x%d", c, n))
		}
		sort.Strings(causes)
		fmt.Println("failed ops:", strings.Join(causes, "; "))
	}
	if len(res.violations) == 0 {
		fmt.Println("output checks: ok")
		return
	}
	for _, v := range res.violations {
		fmt.Println("output check FAILED:", v)
	}
}

// setUp builds the workload's stack repeats times and keeps the last
// one, connected: each set-up runs from dataset generation to the first
// answered op, and their median is setup_s. Earlier stacks are torn down.
func setUp(w workloadSpec, conns, repeats int, rec *recorder, label string) (*stack, []*serve.Client, []float64, error) {
	var setups []float64
	for k := 0; ; k++ {
		last := k == repeats-1
		dir, socket := fmt.Sprintf("%s-%d", label, k), fmt.Sprintf("%s-%d.sock", label, k)
		t0 := time.Now()
		r := rec
		if !last {
			r = nil
		}
		st, err := startStack(w, dir, socket, tpch.Generate(w.SF, dataSeed), r)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("setup: %w", err)
		}
		cls, err := newClients(w, socket, conns)
		if err == nil {
			err = ping(cls)
		}
		if err != nil {
			closeClients(cls)
			st.stop()
			return nil, nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if last {
			return st, cls, setups, nil
		}
		closeClients(cls)
		st.stop()
		removeAll(dir)
	}
}

// runPass sets the workload up, runs the measured phase, takes the
// metrics and checks the outputs.
func runPass(w workloadSpec, conns int, seed uint64, dur time.Duration, repeats int, rec *recorder, label string) (passResult, error) {
	res := passResult{}
	capOps := int(w.RatePerSec*dur.Seconds())/conns + 2 // +2 covers rounding of the send interval
	seqs := make([]*opSeq, conns)
	for c := range seqs {
		seqs[c] = generateOps(w, seed, c, capOps)
	}
	st, cls, setups, err := setUp(w, conns, repeats, rec, label)
	if err != nil {
		return res, err
	}
	defer removeAll(fmt.Sprintf("%s-%d", label, repeats-1))

	base := time.Now()
	if rec != nil {
		base = rec.base
	}
	// The untraced pass touches the servers only through the protocol;
	// counter snapshots are for the traced pass's per-layer metrics.
	var before, after counters
	if rec != nil {
		before = st.snapshot()
	}
	wb0, err0 := readWriteBytes("/proc/self/io")
	runs, start, wall := runLoad(w, cls, seqs, base, dur)
	phaseEnd := int64(time.Since(base))
	wb1, err1 := readWriteBytes("/proc/self/io")
	if rec != nil {
		after = st.snapshot()
	}
	heap := heapMB()
	for c, r := range runs {
		if r.exhausted {
			err0 = errors.Join(err0, fmt.Errorf("connection %d ran out of ops before the phase ended; raise ops_per_sec_cap in workloads.json", c))
		}
	}
	if err := errors.Join(err0, err1); err != nil {
		closeClients(cls)
		st.stop()
		return res, err
	}

	attempted, failed, ackedN, refused := tally(runs)
	res.attempted, res.failed = attempted, failed
	acked := float64(ackedN)
	res.failures = map[string]int{}
	var advances float64
	var scheduled int64
	for _, r := range runs {
		for c, n := range r.failures {
			res.failures[c] += n
		}
		for _, s := range r.samples {
			if s.kind == opAdvance && s.ok {
				advances++
				scheduled += int64(r.seq.ops[s.idx].secs)
			}
		}
	}

	virtual, verr := checkVirtual(w, cls[0], st.startVirtual, float64(scheduled))
	if verr != nil {
		res.violations = append(res.violations, verr.Error())
	}
	res.violations = append(res.violations, checkStatuses(cls, runs)...)
	journalBytes := st.journalBytes()
	closeClients(cls)
	st.stop()
	res.violations = append(res.violations, checkJournals(st.journalDirs, w.HistoryJobs, runs, refused)...)

	wallSecs := wall.Seconds()
	add := func(name, unit string, v float64, n int) {
		res.e2e = append(res.e2e, metric{name: name, unit: unit, value: v, n: n})
	}
	add("setup_s", "s", median(setups), len(setups))
	add("submit_per_s", "1/s", acked/wallSecs, ackedN)
	for _, k := range []opKind{opSubmit, opStatus, opAdvance} {
		lat := latencies(runs, k)
		if v, ok := percentile(lat, 0.5); ok {
			add(k.String()+"_p50_ms", "ms", v, len(lat))
		}
		if v, ok := percentile(lat, 0.99); ok {
			add(k.String()+"_p99_ms", "ms", v, len(lat))
		}
	}
	add("failed_frac", "fraction", ratio(float64(res.failed), float64(res.attempted)), res.attempted)
	add("disk_write_bytes_per_submit", "bytes", ratio(float64(wb1-wb0), acked), ackedN)
	add("heap_mb", "MB", heap, 0)

	if rec != nil {
		res.layers = layerMetrics(layerInputs{
			w: w, runs: runs, rec: rec, before: before, after: after,
			phase:    span{int64(start.Sub(base)), phaseEnd},
			wallSecs: wallSecs, acked: acked, advances: advances, virtualSecs: virtual,
			journalBytes: journalBytes, replaySecs: st.replaySecs,
		})
		res.runs = runs
	}
	return res, nil
}
