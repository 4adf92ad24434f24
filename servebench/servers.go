package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rotary/internal/admission"
	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/estimate"
	"rotary/internal/obs"
	"rotary/internal/serve"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// Settings rotary-serve uses at its flag defaults: -admission reject,
// -watchdog-slack 4, -aging 8, -trace-ring 4096. Every workload also
// runs at -pace 0 (serve.Config's zero Pace), so only advance ops move
// the virtual clock.
const (
	serveWatchdogSlack = 4
	serveAging         = 8
	serveTraceRing     = 4096
	// memoryCkptSlots is the memory tier of the non-durable server's
	// checkpoint store (rotary-serve without -journal).
	memoryCkptSlots = 8
	// dataSeed is rotary-serve's default -seed: every run serves the same
	// TPC-H data and catalog, and the benchmark's seed varies the ops.
	dataSeed = 1
)

// stack is one running server (or router) under test, with handles to
// every counter source the per-layer metrics read.
type stack struct {
	socket string
	// journalDirs are the durable state directories to replay-check.
	journalDirs []string
	ctrls       []*admission.Controller
	stores      []*core.CheckpointStore
	// regs are the serving registries: the server's, or one per shard.
	// Every server gets a fresh registry, as it would alone in a
	// rotary-serve process, so counters never mix across set-ups.
	regs       []*obs.Registry
	routerReg  *obs.Registry
	rec        *recorder // nil on the untraced pass
	replaySecs float64
	// startVirtual is the clock at boot (the replayed history's end).
	startVirtual float64

	serveErr chan error
	stop     func()
}

// splitTenants lists the tenants of a -tenants spec in name order.
func splitTenants(spec string) []string {
	tbl, err := admission.ParseTenantSpec(spec)
	if err != nil {
		return nil
	}
	var names []string
	for name := range tbl.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// buildScheduler mirrors rotary-serve: the paper's policy gets a seeded
// progress-estimator history, the baselines need none.
func buildScheduler(policy string, repo *estimate.Repository, cat *tpch.Catalog) (core.AQPScheduler, error) {
	switch policy {
	case "rotary":
		if err := workload.SeedAQPHistory(repo, cat, workload.RecommendedBatchRows(cat)); err != nil {
			return nil, err
		}
		return core.NewRotaryAQP(estimate.NewAccuracyProgress(repo, 3)), nil
	case "rr":
		return baselines.RoundRobinAQP{}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", policy)
	}
}

// buildExec assembles one executor stack the way rotary-serve does for
// the workload's flags, wrapping the policy in the tracing decorator on
// the traced pass.
func buildExec(w workloadSpec, cat *tpch.Catalog, tenants admission.TenantTable, store *core.CheckpointStore, reg *obs.Registry, rec *recorder) (*core.AQPExecutor, *admission.Controller, error) {
	repo := estimate.NewRepository()
	sched, err := buildScheduler(w.Policy, repo, cat)
	if err != nil {
		return nil, nil, err
	}
	if tenants.Enabled() {
		sched = core.NewFairShareAQP(sched, tenants.Weights())
	}
	if rec != nil {
		sched = wrapScheduler(sched, rec)
	}
	cfg := core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat))
	cfg.Obs = reg
	cfg.Tracer = core.NewTracer(serveTraceRing)
	ctrl := admission.NewController(admission.Config{
		MaxQueueDepth: w.QueueBound,
		SlackFactor:   w.SlackFactor,
		Policy:        admission.Reject,
		Obs:           reg,
		Tenants:       tenants,
	})
	cfg.Admission = ctrl
	cfg.AgingRounds = serveAging
	cfg.Store = store
	cfg.WatchdogSlack = serveWatchdogSlack
	return core.NewAQPExecutor(cfg, sched, repo), ctrl, nil
}

// diskIO is the disk layer a durable directory or store is opened over:
// the real filesystem untraced, the timing decorator traced.
func (st *stack) diskIO() diskio.IO {
	if st.rec == nil {
		return nil
	}
	return newTracedIO(st.rec)
}

// startStack builds and starts the workload's server with its state
// under dir, pre-seeding the journal history first where the workload
// has one.
func startStack(w workloadSpec, dir, socket string, ds *tpch.Dataset, rec *recorder) (*stack, error) {
	st := &stack{socket: socket, rec: rec}
	tenants, err := admission.ParseTenantSpec(w.Tenants)
	if err != nil {
		return nil, err
	}
	switch w.Server {
	case "durable":
		err = st.startDurable(w, dir, ds, tenants)
	case "router":
		err = st.startRouter(w, dir, ds, tenants)
	case "memory":
		err = st.startMemory(w, dir, ds, tenants)
	default:
		err = fmt.Errorf("unknown server kind %q", w.Server)
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (st *stack) startDurable(w workloadSpec, dir string, ds *tpch.Dataset, tenants admission.TenantTable) error {
	cat := tpch.NewCatalog(ds, dataSeed)
	if w.HistoryJobs > 0 {
		if err := seedHistory(dir, w.HistoryJobs, workload.RecommendedBatchRows(cat), lightStatements(w.Mix.DeadlineSecs)); err != nil {
			return err
		}
	}
	t0 := time.Now()
	jl, store, err := serve.OpenDurableIO(dir, st.diskIO())
	if err != nil {
		return err
	}
	st.replaySecs = time.Since(t0).Seconds()
	st.journalDirs = []string{dir}
	st.startVirtual = jl.Recovered().VirtualNow
	reg := obs.NewRegistry()
	exec, ctrl, err := buildExec(w, cat, tenants, store, reg, st.rec)
	if err != nil {
		jl.Close()
		store.Close()
		return err
	}
	st.regs = []*obs.Registry{reg}
	st.ctrls = append(st.ctrls, ctrl)
	st.stores = append(st.stores, store)
	srv, err := serve.New(serve.Config{Socket: st.socket, Journal: jl, Obs: reg}, exec, cat)
	if err != nil {
		jl.Close()
		store.Close()
		return err
	}
	return st.runServer(srv, store)
}

func (st *stack) startMemory(w workloadSpec, dir string, ds *tpch.Dataset, tenants admission.TenantTable) error {
	cat := tpch.NewCatalog(ds, dataSeed)
	// rotary-serve without -journal: a scratch checkpoint store with a
	// memory tier, so the watchdog can roll back.
	store, err := core.NewCheckpointStoreIO(filepath.Join(dir, "ckpt"), memoryCkptSlots, nil, st.diskIO())
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	exec, ctrl, err := buildExec(w, cat, tenants, store, reg, st.rec)
	if err != nil {
		store.Close()
		return err
	}
	st.regs = []*obs.Registry{reg}
	st.ctrls = append(st.ctrls, ctrl)
	st.stores = append(st.stores, store)
	srv, err := serve.New(serve.Config{Socket: st.socket, Obs: reg}, exec, cat)
	if err != nil {
		store.Close()
		return err
	}
	return st.runServer(srv, store)
}

// runServer serves srv in the background and waits until it listens;
// stop kills it (no drain: the live jobs are abandoned, as a kill -9
// would) and waits for Serve to return.
func (st *stack) runServer(srv *serve.Server, store *core.CheckpointStore) error {
	st.serveErr = make(chan error, 1)
	go func() { st.serveErr <- srv.Serve() }()
	for len(srv.ListenAddrs()) == 0 {
		select {
		case err := <-st.serveErr:
			store.Close()
			return fmt.Errorf("serve: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	st.stop = func() {
		srv.Kill()
		<-st.serveErr
		store.Close()
	}
	return nil
}

func (st *stack) startRouter(w workloadSpec, dir string, ds *tpch.Dataset, tenants admission.TenantTable) error {
	// Shard boot replays the shard's journal between the DiskIO hook
	// (called just before the durable pair opens) and Build (just
	// after): their gap is the shard's replay time.
	opened := make([]time.Time, w.Shards)
	build := func(index int, store *core.CheckpointStore) (*core.AQPExecutor, *tpch.Catalog, *obs.Registry, error) {
		st.replaySecs += time.Since(opened[index]).Seconds()
		reg := obs.NewRegistry()
		cat := tpch.NewCatalog(ds, dataSeed+uint64(index))
		exec, ctrl, err := buildExec(w, cat, tenants, store, reg, st.rec)
		if err != nil {
			return nil, nil, nil, err
		}
		st.ctrls = append(st.ctrls, ctrl)
		st.stores = append(st.stores, store)
		st.regs[index] = reg
		return exec, cat, reg, nil
	}
	st.routerReg = obs.NewRegistry()
	router, err := serve.NewRouter(serve.RouterConfig{
		Socket: st.socket,
		Obs:    st.routerReg,
		Shards: w.Shards,
		Dir:    dir,
		Build:  build,
		DiskIO: func(index int) diskio.IO {
			opened[index] = time.Now()
			return st.diskIO()
		},
	})
	if err != nil {
		return err
	}
	for i := 0; i < w.Shards; i++ {
		st.journalDirs = append(st.journalDirs, filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
	}
	st.regs = make([]*obs.Registry, w.Shards)
	st.serveErr = make(chan error, 1)
	go func() { st.serveErr <- router.Serve() }()
	select {
	case <-router.Ready():
	case err := <-st.serveErr:
		return fmt.Errorf("router: %v", err)
	}
	for i, reg := range st.regs {
		if reg == nil {
			router.Close()
			<-st.serveErr
			return fmt.Errorf("router: shard %d did not start", i)
		}
	}
	st.stop = func() {
		router.Close()
		<-st.serveErr
		for _, s := range st.stores {
			s.Close()
		}
	}
	return nil
}

// seedHistory journals n terminal jobs under dir through the public
// Journal.Append: each gets its submit, verdict and terminal record,
// with a req_id, as a served job would. One Append keeps it to one
// fsync and one compaction.
func seedHistory(dir string, n, batchRows int, stmts []string) error {
	jl, err := serve.OpenJournal(dir)
	if err != nil {
		return err
	}
	recs := make([]serve.Record, 0, 3*n)
	for i := 0; i < n; i++ {
		id := historyID(i)
		at := float64(i)
		status := "attained"
		if i%5 == 4 {
			status = "expired"
		}
		recs = append(recs,
			serve.Record{Kind: "submit", ID: id, ReqID: id, Statement: stmts[i%len(stmts)], BatchRows: batchRows, At: at},
			serve.Record{Kind: "verdict", ID: id, Status: "admitted", At: at},
			serve.Record{Kind: "terminal", ID: id, Status: status, Epochs: 1 + i%7, At: at + 1},
		)
	}
	if err := jl.Append(recs...); err != nil {
		jl.Close()
		return fmt.Errorf("seed history: %w", err)
	}
	return jl.Close()
}

// removeAll deletes a state directory, reporting what it could not.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: cleanup %s: %v\n", dir, err)
	}
}
