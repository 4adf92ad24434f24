package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"rotary/internal/admission"
	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/obs"
	"rotary/internal/serve"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

func mustConfig(t *testing.T) benchConfig {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestGenerateOpsDeterministic(t *testing.T) {
	cfg := mustConfig(t)
	for _, w := range cfg.Workloads {
		a, b := generateOps(w, 7, 1, 500), generateOps(w, 7, 1, 500)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: one seed gave two op sequences", w.Name)
		}
		for i := range a.ops {
			if !reflect.DeepEqual(a.message(i), b.message(i)) {
				t.Fatalf("%s: op %d renders differently", w.Name, i)
			}
		}
		if reflect.DeepEqual(a.ops, generateOps(w, 8, 1, 500).ops) {
			t.Fatalf("%s: seeds 7 and 8 gave the same ops", w.Name)
		}
		if reflect.DeepEqual(a.ops, generateOps(w, 7, 0, 500).ops) {
			t.Fatalf("%s: connections 0 and 1 got the same ops", w.Name)
		}
		kinds := map[opKind]int{}
		for _, o := range a.ops {
			kinds[o.kind]++
		}
		if kinds[opSubmit] == 0 || kinds[opStatus] == 0 || kinds[opAdvance] == 0 {
			t.Fatalf("%s: mix lacks an op kind: %v", w.Name, kinds)
		}
	}
}

func TestCyclesFollowTableIMix(t *testing.T) {
	w, err := mustConfig(t).workload("arbiter-mixed")
	if err != nil {
		t.Fatal(err)
	}
	cycle := 1 + w.Mix.Advance*(w.Mix.Status/w.Mix.Advance+1)
	s := generateOps(w, 3, 0, cycle*100)
	classes := map[tpch.Class]int{}
	var virtual int64
	for i, o := range s.ops {
		switch o.kind {
		case opSubmit:
			q := strings.Fields(s.message(i).Statement)[0]
			c, err := tpch.ClassOf(q)
			if err != nil {
				t.Fatal(err)
			}
			classes[c]++
		case opAdvance:
			virtual += int64(o.secs)
		}
	}
	if classes[tpch.Light] != 40 || classes[tpch.Medium] != 30 || classes[tpch.Heavy] != 30 {
		t.Fatalf("100 jobs split %v, want 40/30/30", classes)
	}
	if want := int64(100 * w.Mix.CycleAdvanceSecs); virtual != want {
		t.Fatalf("100 cycles advance %ds, want %ds", virtual, want)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed: percentile must sort
		}
		return out
	}
	if _, ok := percentile(xs(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, ok := percentile(xs(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(xs(19), 0.5); ok {
		t.Fatal("p50 of 19 samples must be refused")
	}
	if v, ok := percentile(xs(20), 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
}

func TestIOAndHeapReaders(t *testing.T) {
	fake := filepath.Join(t.TempDir(), "io")
	body := "rchar: 10\nwchar: 20\nread_bytes: 4096\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n"
	if err := os.WriteFile(fake, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if v, err := readWriteBytes(fake); err != nil || v != 8192 {
		t.Fatalf("readWriteBytes = %d, %v; want 8192", v, err)
	}
	if err := os.WriteFile(fake, []byte("rchar: 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readWriteBytes(fake); err == nil {
		t.Fatal("a file without write_bytes must be an error")
	}
	if _, err := os.Stat("/proc/self/io"); err == nil {
		if v, err := readWriteBytes("/proc/self/io"); err != nil || v < 0 {
			t.Fatalf("/proc/self/io: %d, %v", v, err)
		}
	}
	before := heapMB()
	heapSink = make([]byte, 64<<20)
	after := heapMB()
	heapSink = nil
	if after-before < 60 {
		t.Fatalf("heap grew %.1f MB for a live 67 MB slice", after-before)
	}
}

var heapSink []byte

func TestGatedMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		slices.Sort(out)
		return out
	}
	sorted := func(xs []string) []string { return slices.Sorted(slices.Values(xs)) }
	if got, want := names(bj.EndToEnd), sorted(gatedE2E); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", got, want)
	}
	if got, want := names(bj.PerLayer), sorted(gatedLayers); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", got, want)
	}
	var workloads []string
	for _, w := range mustConfig(t).Workloads {
		workloads = append(workloads, w.Name)
	}
	if got := names(bj.Workloads); !slices.Equal(got, sorted(workloads)) {
		t.Errorf("BENCHMARK.json workloads %v, workloads.json has %v", got, workloads)
	}
}

// fakeSched implements neither optional interface.
type fakeSched struct{}

func (fakeSched) Name() string                            { return "fake" }
func (fakeSched) Assign(*core.AQPContext) []core.AQPGrant { return nil }

func TestWrapSchedulerForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	rec := newRecorder(time.Now())
	for _, inner := range []core.AQPScheduler{
		fakeSched{},
		baselines.RoundRobinAQP{},
		core.NewFairShareAQP(baselines.RoundRobinAQP{}, map[string]float64{"a": 1}),
		core.NewRotaryAQP(estimate.NewAccuracyProgress(estimate.NewRepository(), 3)),
	} {
		w := wrapScheduler(inner, rec)
		_, p1 := inner.(core.ProfiledAQPScheduler)
		_, p2 := w.(core.ProfiledAQPScheduler)
		_, c1 := inner.(core.AQPReplayCommitter)
		_, c2 := w.(core.AQPReplayCommitter)
		if p1 != p2 || c1 != c2 {
			t.Errorf("%s: profiled %v→%v, committer %v→%v", inner.Name(), p1, p2, c1, c2)
		}
		if w.Name() != inner.Name() {
			t.Errorf("wrapped name %q, want %q", w.Name(), inner.Name())
		}
	}
}

// seededOutcome is what a seeded single-connection run leaves behind.
type seededOutcome struct {
	statuses map[string]string
	virtual  float64
	fast     core.FastPathStats
}

// runSeeded serves a durable fair-share server with the fast path on,
// drives it from one connection through a fixed op sequence, then
// advances far enough for every job to end and reads every status.
func runSeeded(t *testing.T, traced bool) seededOutcome {
	t.Helper()
	dir := t.TempDir()
	ds := tpch.Generate(0.001, dataSeed)
	cat := tpch.NewCatalog(ds, dataSeed)
	var rec *recorder
	st := &stack{}
	if traced {
		rec = newRecorder(time.Now())
		st.rec = rec
	}
	jl, store, err := serve.OpenDurableIO(filepath.Join(dir, "state"), st.diskIO())
	if err != nil {
		t.Fatal(err)
	}
	tenants, err := admission.ParseTenantSpec("alpha:weight=3;beta:weight=1")
	if err != nil {
		t.Fatal(err)
	}
	var sched core.AQPScheduler = core.NewFairShareAQP(baselines.RoundRobinAQP{}, tenants.Weights())
	if traced {
		sched = wrapScheduler(sched, rec)
	}
	reg := obs.NewRegistry()
	cfg := core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat))
	cfg.Obs = reg
	cfg.Store = store
	cfg.WatchdogSlack = serveWatchdogSlack
	cfg.FastPath = true
	cfg.Admission = admission.NewController(admission.Config{Obs: reg, Tenants: tenants})
	exec := core.NewAQPExecutor(cfg, sched, estimate.NewRepository())
	socket := filepath.Join(dir, "s.sock")
	srv, err := serve.New(serve.Config{Socket: socket, Journal: jl, Obs: reg}, exec, cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.runServer(srv, store); err != nil {
		t.Fatal(err)
	}
	defer st.stop()

	w := workloadSpec{Server: "durable", Codec: serve.CodecBinary, Tenants: "alpha:weight=3;beta:weight=1",
		Mix: mixSpec{Submit: 1, Status: 4, Advance: 2, CycleAdvanceSecs: 160}}
	seq := generateOps(w, 5, 0, 300)
	cls, err := newClients(w, socket, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeClients(cls)
	var ids []string
	for i := range seq.ops {
		m := seq.message(i)
		resp, err := cls[0].Do(m)
		if err != nil || !resp.OK {
			t.Fatalf("op %d %+v: %v %+v", i, m, err, resp)
		}
		if m.Op == "submit" {
			ids = append(ids, m.ID)
		}
	}
	if _, err := cls[0].Do(serve.Message{Op: "advance", Seconds: 20000}); err != nil {
		t.Fatal(err)
	}
	out := seededOutcome{statuses: map[string]string{}}
	for _, id := range ids {
		resp, err := cls[0].Do(serve.Message{Op: "status", ID: id})
		if err != nil || !resp.OK {
			t.Fatalf("status %s: %v %+v", id, err, resp)
		}
		out.statuses[id] = resp.Status
		out.virtual = resp.VirtualNow
	}
	out.fast = exec.FastPath()
	if traced && (len(rec.assign) == 0 || len(rec.disk) == 0) {
		t.Fatalf("traced run recorded %d Assign and %d disk spans", len(rec.assign), len(rec.disk))
	}
	return out
}

func TestDecoratorsChangeNoBehaviour(t *testing.T) {
	plain, traced := runSeeded(t, false), runSeeded(t, true)
	if !reflect.DeepEqual(plain.statuses, traced.statuses) {
		t.Fatalf("terminal statuses differ:\nplain  %v\ntraced %v", plain.statuses, traced.statuses)
	}
	if plain.virtual != traced.virtual {
		t.Fatalf("virtual clock %v untraced, %v traced", plain.virtual, traced.virtual)
	}
	if plain.fast != traced.fast {
		t.Fatalf("fast path %+v untraced, %+v traced", plain.fast, traced.fast)
	}
	// Exact-signature hits are rare under serve churn; what must hold is
	// that the decorated policy still takes the fast path, not a bypass.
	if plain.fast.Misses == 0 || plain.fast.Bypassed != 0 {
		t.Fatalf("fast path saw %+v; the profiled policy must be cached, not bypassed", plain.fast)
	}
	for id, s := range plain.statuses {
		if s == "pending" || s == "running" {
			t.Fatalf("job %s still %s after the final advance", id, s)
		}
	}
}
