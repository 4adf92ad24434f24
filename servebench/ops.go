package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"rotary/internal/serve"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

//go:embed workloads.json
var workloadsJSON []byte

// benchConfig is workloads.json: the fixed settings every run uses.
type benchConfig struct {
	Conns        int            `json:"conns"`
	SetupRepeats int            `json:"setup_repeats"`
	Workloads    []workloadSpec `json:"workloads"`
}

// workloadSpec is one workload's server settings, loop and op mix.
type workloadSpec struct {
	Name        string  `json:"name"`
	Why         string  `json:"why"`
	Server      string  `json:"server"` // durable, router or memory
	Shards      int     `json:"shards"`
	Policy      string  `json:"policy"`
	Codec       string  `json:"codec"`
	RatePerSec  float64 `json:"rate_per_sec"`
	SF          float64 `json:"sf"`
	HistoryJobs int     `json:"history_jobs"`
	QueueBound  int     `json:"queue_bound"`
	SlackFactor float64 `json:"slack_factor"`
	Tenants     string  `json:"tenants"`
	Mix         mixSpec `json:"mix"`
}

// mixSpec is the op mix. With CycleAdvanceSecs set, ops repeat a fixed
// Table I cycle of one submit, Status polls and Advance advances;
// otherwise each op is drawn by weight.
type mixSpec struct {
	Submit   int    `json:"submit"`
	Status   int    `json:"status"`
	Advance  int    `json:"advance"`
	StatusOf string `json:"status_of"` // history or own
	// AdvanceSecs is the uniform range of a weighted mix's advance step
	// and DeadlineSecs the range of its submits' deadlines.
	AdvanceSecs  [2]int `json:"advance_secs"`
	DeadlineSecs [2]int `json:"deadline_secs"`
	// CycleAdvanceSecs is how far one Table I cycle advances the clock.
	// Each cycle submits one job, so jobs arrive every CycleAdvanceSecs
	// virtual seconds on average whatever the connection count.
	CycleAdvanceSecs int `json:"cycle_advance_secs"`
}

func loadConfig() (benchConfig, error) {
	var cfg benchConfig
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		return cfg, fmt.Errorf("workloads.json: %w", err)
	}
	if cfg.Conns < 1 || cfg.SetupRepeats < 1 {
		return cfg, fmt.Errorf("workloads.json: conns and setup_repeats must be >= 1")
	}
	return cfg, nil
}

func (c benchConfig) workload(name string) (workloadSpec, error) {
	for _, w := range c.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

type opKind uint8

const (
	opSubmit opKind = iota
	opStatus
	opAdvance
)

var opNames = [...]string{"submit", "status", "advance"}

func (k opKind) String() string { return opNames[k] }

// op is one pre-generated client operation, kept compact so the op
// lists add little to the measured heap.
type op struct {
	kind opKind
	// stmt indexes opSeq.stmts (submit); tenant indexes opSeq.tenants.
	stmt   int32
	tenant int8
	// seq is the submit's sequence number on its connection, or for a
	// status op the target: a history index, or an own submit's seq.
	seq  int32
	secs int32 // advance
}

// opSeq is one connection's op list plus the tables its ops index.
type opSeq struct {
	conn    int
	ops     []op
	stmts   []string
	tenants []string
	history bool // status ops target seeded history ids
	reqIDs  bool // submits carry a req_id
}

func historyID(i int) string        { return fmt.Sprintf("hist-%05d", i) }
func submitID(conn, seq int) string { return fmt.Sprintf("c%d-%07d", conn, seq) }

func statement(query string, accuracy, deadline float64) string {
	return fmt.Sprintf("%s ACC MIN %d%% WITHIN %d SECONDS", query, int(math.Round(accuracy*100)), int(deadline))
}

// message renders op i as the request a client sends.
func (s *opSeq) message(i int) serve.Message {
	o := s.ops[i]
	switch o.kind {
	case opSubmit:
		id := submitID(s.conn, int(o.seq))
		m := serve.Message{Op: "submit", ID: id, Statement: s.stmts[o.stmt]}
		if s.reqIDs {
			m.ReqID = id
		}
		if o.tenant >= 0 {
			m.Tenant = s.tenants[o.tenant]
		}
		return m
	case opStatus:
		if s.history {
			return serve.Message{Op: "status", ID: historyID(int(o.seq))}
		}
		return serve.Message{Op: "status", ID: submitID(s.conn, int(o.seq))}
	default:
		return serve.Message{Op: "advance", Seconds: float64(o.secs)}
	}
}

// lightStatements lists the light-class statements over the Table I
// accuracy thresholds and deadlines from lo to hi seconds in steps of 10.
func lightStatements(deadlines [2]int) []string {
	var out []string
	for _, q := range tpch.QueriesOfClass(tpch.Light) {
		for _, acc := range workload.AccuracyThresholds {
			for d := deadlines[0]; d <= deadlines[1]; d += 10 {
				out = append(out, statement(q, acc, float64(d)))
			}
		}
	}
	return out
}

// generateOps builds connection conn's op list of n ops from the seed.
// The same (spec, seed, conn, n) always yields the same list.
func generateOps(w workloadSpec, seed uint64, conn, n int) *opSeq {
	r := rand.New(rand.NewPCG(seed, uint64(conn)+1))
	s := &opSeq{conn: conn, history: w.Mix.StatusOf == "history", reqIDs: w.Server != "memory"}
	if w.Mix.CycleAdvanceSecs > 0 {
		s.generateCycles(w, r, n)
		return s
	}
	// Kinds, statements and advance steps are dealt from seeded decks, so
	// every stretch of ops holds the mix in its exact proportions.
	s.stmts = lightStatements(w.Mix.DeadlineSecs)
	var kinds []opKind
	for k, weight := range []int{w.Mix.Submit, w.Mix.Status, w.Mix.Advance} {
		for i := 0; i < weight; i++ {
			kinds = append(kinds, opKind(k))
		}
	}
	kindDeck := newDeck(kinds)
	stmtDeck := newDeck(seqTo(int32(len(s.stmts))))
	var steps []int32
	for secs := w.Mix.AdvanceSecs[0]; secs <= w.Mix.AdvanceSecs[1]; secs++ {
		steps = append(steps, int32(secs))
	}
	stepDeck := newDeck(steps)
	submits := 0
	for len(s.ops) < n {
		k := kindDeck.deal(r)
		if k == opStatus && !s.history && submits == 0 {
			k = opSubmit // nothing of its own to poll yet
		}
		switch k {
		case opSubmit:
			s.ops = append(s.ops, op{kind: opSubmit, stmt: stmtDeck.deal(r), tenant: -1, seq: int32(submits)})
			submits++
		case opStatus:
			target := submits - 1 // the connection's latest acked job
			if s.history {
				target = r.IntN(w.HistoryJobs)
			}
			s.ops = append(s.ops, op{kind: opStatus, seq: int32(target)})
		case opAdvance:
			s.ops = append(s.ops, op{kind: opAdvance, secs: stepDeck.deal(r)})
		}
	}
	return s
}

// seqTo returns 0, 1, ..., n-1.
func seqTo(n int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// deck deals items in seeded random order, reshuffling after each full
// pass, so every stretch of len(items) draws holds each item once.
type deck[T any] struct {
	items []T
	next  int
}

func newDeck[T any](items []T) *deck[T] {
	return &deck[T]{items: append([]T(nil), items...), next: len(items)}
}

func (d *deck[T]) deal(r *rand.Rand) T {
	if d.next == len(d.items) {
		r.Shuffle(len(d.items), func(a, b int) { d.items[a], d.items[b] = d.items[b], d.items[a] })
		d.next = 0
	}
	d.next++
	return d.items[d.next-1]
}

// generateCycles builds Table I cycles: submit the next job, then
// Mix.Advance advance steps of CycleAdvanceSecs/Mix.Advance seconds,
// each followed by Mix.Status/Mix.Advance polls of the connection's
// recent jobs. Jobs follow the Table I mix (40/30/30 light/medium/
// heavy) with query, accuracy threshold and deadline uniform over the
// class's Table I spaces. Each is dealt from a seeded deck rather than
// drawn independently, so runs under different seeds carry the same
// load in a different order.
func (s *opSeq) generateCycles(w workloadSpec, r *rand.Rand, n int) {
	s.tenants = splitTenants(w.Tenants)
	index := map[string]int32{}
	classes := newDeck([]tpch.Class{tpch.Light, tpch.Light, tpch.Light, tpch.Light,
		tpch.Medium, tpch.Medium, tpch.Medium, tpch.Heavy, tpch.Heavy, tpch.Heavy})
	queries := map[tpch.Class]*deck[string]{}
	deadlines := map[tpch.Class]*deck[float64]{}
	for _, c := range []tpch.Class{tpch.Light, tpch.Medium, tpch.Heavy} {
		queries[c] = newDeck(tpch.QueriesOfClass(c))
		deadlines[c] = newDeck(workload.DeadlinesByClass[c])
	}
	thresholds := newDeck(workload.AccuracyThresholds)
	var tenants *deck[int8]
	if len(s.tenants) > 0 {
		ids := make([]int8, len(s.tenants))
		for i := range ids {
			ids[i] = int8(i)
		}
		tenants = newDeck(ids)
	}
	const recent = 8 // status polls pick among the last 8 submits
	step := int32(w.Mix.CycleAdvanceSecs / w.Mix.Advance)
	polls := w.Mix.Status / w.Mix.Advance
	for i := 0; len(s.ops) < n; i++ {
		cls := classes.deal(r)
		st := statement(queries[cls].deal(r), thresholds.deal(r), deadlines[cls].deal(r))
		idx, ok := index[st]
		if !ok {
			idx = int32(len(s.stmts))
			index[st] = idx
			s.stmts = append(s.stmts, st)
		}
		tenant := int8(-1)
		if tenants != nil {
			tenant = tenants.deal(r)
		}
		s.ops = append(s.ops, op{kind: opSubmit, stmt: idx, tenant: tenant, seq: int32(i)})
		for a := 0; a < w.Mix.Advance; a++ {
			for p := 0; p < polls; p++ {
				back := r.IntN(min(i+1, recent))
				s.ops = append(s.ops, op{kind: opStatus, seq: int32(i - back)})
			}
			s.ops = append(s.ops, op{kind: opAdvance, secs: step})
		}
	}
	s.ops = s.ops[:n]
}
