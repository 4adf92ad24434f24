package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/obs"
	"rotary/internal/tpch"
)

// idOwnedBy finds a job id whose consistent-hash owner is the given
// shard — the ring is a pure function of the id, so tests can steer
// submissions deterministically.
func idOwnedBy(t *testing.T, r *Router, shard int) string {
	t.Helper()
	return idsOwnedBy(t, r, shard, 1)[0]
}

// idsOwnedBy finds n distinct job ids whose hash owner is shard.
func idsOwnedBy(t *testing.T, r *Router, shard, n int) []string {
	t.Helper()
	var ids []string
	for i := 0; i < 10000*n && len(ids) < n; i++ {
		id := fmt.Sprintf("own-%d-%d", shard, i)
		if r.ring.Owner(id, func(int) bool { return true }) == shard {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		t.Fatalf("only %d of %d ids hash to shard %d", len(ids), n, shard)
	}
	return ids
}

// stallIO is the real filesystem with fsyncs that stall on demand: while
// stalled is set, every fsync first sleeps for hold — a wedged disk with
// a deterministic onset. stalls counts the fsyncs that began stalling.
type stallIO struct {
	diskio.OS
	hold    time.Duration
	stalled atomic.Bool
	stalls  atomic.Int64
}

func (s *stallIO) OpenFile(name string, flag int, perm os.FileMode) (diskio.File, error) {
	f, err := s.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return stallFile{File: f, io: s}, nil
}

type stallFile struct {
	diskio.File
	io *stallIO
}

func (f stallFile) Sync() error {
	if f.io.stalled.Load() {
		f.io.stalls.Add(1)
		time.Sleep(f.io.hold)
	}
	return f.File.Sync()
}

// TestRouterSubmitRoutingAndStatus: the router speaks the single-server
// protocol over N shards — submits land on their hash-owners, status
// answers from wherever the job lives, stats and metrics fan in across
// the fleet.
func TestRouterSubmitRoutingAndStatus(t *testing.T) {
	base := t.TempDir()
	r := startTestRouter(t, RouterConfig{
		Socket: filepath.Join(base, "r.sock"),
		Shards: 3,
		Dir:    filepath.Join(base, "state"),
		Pace:   0,
	})
	c := dial(t, r.cfg.Socket)

	used := map[int]bool{}
	var ids []string
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("rt-%d", i)
		resp := c.call(t, Message{Op: "submit", ID: id, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
		if !resp.OK {
			t.Fatalf("submit %s: %+v", id, resp)
		}
		if resp.Shard < 0 || resp.Shard >= 3 {
			t.Fatalf("submit %s routed to shard %d", id, resp.Shard)
		}
		used[resp.Shard] = true
		ids = append(ids, id)
		// Status must answer from the same shard the submit landed on.
		st := c.call(t, Message{Op: "status", ID: id})
		if !st.OK || st.Shard != resp.Shard {
			t.Fatalf("status %s from shard %d, submitted to %d: %+v", id, st.Shard, resp.Shard, st)
		}
	}
	if len(used) < 2 {
		t.Fatalf("8 submits all hashed to one shard: %v", used)
	}
	// An id-less submit gets a router-generated id (routing needs the key
	// before any shard has seen the job).
	anon := c.call(t, Message{Op: "submit", Statement: "q6 ACC MIN 55% WITHIN 900 SECONDS"})
	if !anon.OK || anon.ID == "" {
		t.Fatalf("id-less submit: %+v", anon)
	}
	ids = append(ids, anon.ID)

	stats := c.call(t, Message{Op: "stats"})
	if !stats.OK || stats.Jobs != len(ids) {
		t.Fatalf("aggregate stats tracked %d jobs, want %d: %+v", stats.Jobs, len(ids), stats)
	}
	for i := 0; i < 3; i++ {
		if !strings.Contains(stats.Report, fmt.Sprintf("=== shard %d ===", i)) {
			t.Fatalf("stats report missing shard %d section:\n%s", i, stats.Report)
		}
	}
	met := c.call(t, Message{Op: "metrics"})
	if !met.OK {
		t.Fatalf("metrics: %+v", met)
	}
	for _, want := range []string{
		`rotary_router_requests_total{op="submit"}`,
		`rotary_router_forwards_total`,
		`shard="0"`, // per-shard registries merge under an injected label
	} {
		if !strings.Contains(met.Report, want) {
			t.Fatalf("metrics scrape missing %q:\n%s", want, met.Report)
		}
	}

	if resp := c.call(t, Message{Op: "advance", Seconds: 2000}); !resp.OK {
		t.Fatalf("advance: %+v", resp)
	}
	for _, id := range ids {
		resp := c.call(t, Message{Op: "status", ID: id})
		if !resp.OK || !terminalStatus(resp.Status) {
			t.Fatalf("job %s not terminal: %+v", id, resp)
		}
	}
	dr := c.call(t, Message{Op: "drain"})
	if !dr.OK || dr.Jobs != len(ids) || dr.Terminal != len(ids) {
		t.Fatalf("drain: %+v", dr)
	}
}

// TestRouterShardUnavailableTyped is the graceful-degradation contract:
// a dead or wedged shard yields a typed shard-unavailable reply with a
// retry-after hint — promptly, never a hang — before the supervisor has
// noticed the crash, after it has (probed-down), when the shard's disk
// stalls past the router deadline, and when the shard dies while a
// forward waits on it. The surviving shard keeps serving throughout.
func TestRouterShardUnavailableTyped(t *testing.T) {
	t.Run("undetected-crash", func(t *testing.T) {
		base := t.TempDir()
		r := startTestRouter(t, RouterConfig{
			Socket:        filepath.Join(base, "r.sock"),
			Shards:        2,
			Dir:           filepath.Join(base, "state"),
			Pace:          0,
			ProbeInterval: time.Hour, // supervisor never notices: forwards hit the corpse
		})
		c := dial(t, r.cfg.Socket)
		victimID := idOwnedBy(t, r, 0)
		if resp := c.call(t, Message{Op: "submit", ID: victimID, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK || resp.Shard != 0 {
			t.Fatalf("submit: %+v", resp)
		}
		if err := r.KillShard(0); err != nil {
			t.Fatalf("KillShard: %v", err)
		}
		start := time.Now()
		resp := c.call(t, Message{Op: "status", ID: victimID})
		elapsed := time.Since(start)
		if resp.OK || resp.Code != CodeShardUnavailable || resp.Shard != 0 {
			t.Fatalf("status against dead shard: %+v", resp)
		}
		if resp.RetryAfterSecs <= 0 {
			t.Fatalf("no retry-after hint: %+v", resp)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("deadline-bounded forward took %v", elapsed)
		}
	})

	t.Run("probed-down", func(t *testing.T) {
		base := t.TempDir()
		r := startTestRouter(t, RouterConfig{
			Socket:         filepath.Join(base, "r.sock"),
			Shards:         2,
			Dir:            filepath.Join(base, "state"),
			Pace:           0,
			ProbeInterval:  10 * time.Millisecond,
			RestartBackoff: time.Hour, // detected fast, restarted never: stays Down
		})
		c := dial(t, r.cfg.Socket)
		deadID, liveID := idOwnedBy(t, r, 0), idOwnedBy(t, r, 1)
		if resp := c.call(t, Message{Op: "submit", ID: deadID, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK {
			t.Fatalf("submit: %+v", resp)
		}
		if err := r.KillShard(0); err != nil {
			t.Fatalf("KillShard: %v", err)
		}
		waitShardState(t, r, 0, ShardDown, 10*time.Second)

		resp := c.call(t, Message{Op: "status", ID: deadID})
		if resp.OK || resp.Code != CodeShardUnavailable || resp.RetryAfterSecs <= 0 {
			t.Fatalf("status against down shard: %+v", resp)
		}
		// A submit hashing to the down shard is refused, not rerouted: its
		// durable state lives in that shard's journal.
		sub := c.call(t, Message{Op: "submit", ID: idOwnedBy(t, r, 0) + "-new", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
		if sub.OK && sub.Shard == 0 {
			t.Fatalf("submit reached a down shard: %+v", sub)
		}
		// Fault isolation: the surviving shard serves undisturbed.
		if resp := c.call(t, Message{Op: "submit", ID: liveID, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK || resp.Shard != 1 {
			t.Fatalf("submit to surviving shard: %+v", resp)
		}
		h := c.call(t, Message{Op: "health"})
		if !h.OK || !strings.Contains(h.Status, "degraded") {
			t.Fatalf("health with a down shard: %+v", h)
		}
		sh := c.call(t, Message{Op: "shards"})
		if !sh.OK || sh.Shards[0].State != "down" || sh.Shards[1].State != "running" {
			t.Fatalf("shards report: %+v", sh)
		}
	})

	t.Run("fsync-stall-past-deadline", func(t *testing.T) {
		const deadline = 100 * time.Millisecond
		disk := &stallIO{hold: 2 * time.Second}
		base := t.TempDir()
		r := startTestRouterDeadline(t, RouterConfig{
			Socket:         filepath.Join(base, "r.sock"),
			Shards:         2,
			Dir:            filepath.Join(base, "state"),
			Pace:           0,
			ProbeInterval:  10 * time.Millisecond,
			RestartBackoff: time.Hour, // marked down, never restarted mid-test
			DiskIO: func(i int) diskio.IO {
				if i == 0 {
					return disk
				}
				return nil
			},
		}, deadline)
		defer disk.stalled.Store(false)
		c := dial(t, r.cfg.Socket)
		disk.stalled.Store(true)
		start := time.Now()
		resp := c.call(t, Message{Op: "submit", ID: idOwnedBy(t, r, 0), Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
		elapsed := time.Since(start)
		if resp.OK || resp.Code != CodeShardUnavailable || resp.Shard != 0 || resp.RetryAfterSecs <= 0 {
			t.Fatalf("submit to a shard stalled in fsync: %+v", resp)
		}
		if elapsed < deadline || elapsed > disk.hold/2 {
			t.Fatalf("stalled submit answered after %v; want the %v deadline, well inside the %v stall", elapsed, deadline, disk.hold)
		}
		// The supervisor's probe queues behind the same stall, misses its
		// own (longer) deadline too, and takes the shard down.
		waitShardState(t, r, 0, ShardDown, 5*time.Second)
		if resp := c.call(t, Message{Op: "submit", ID: idOwnedBy(t, r, 1), Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK || resp.Shard != 1 {
			t.Fatalf("submit to surviving shard: %+v", resp)
		}
		sh := c.call(t, Message{Op: "shards"})
		if !sh.OK || sh.Shards[0].State != "down" || !strings.Contains(sh.Shards[0].Error, ErrTimeout.Error()) {
			t.Fatalf("shards report after the stall: %+v", sh)
		}
	})

	t.Run("killed-mid-forward", func(t *testing.T) {
		disk := &stallIO{hold: 300 * time.Millisecond}
		base := t.TempDir()
		r := startTestRouter(t, RouterConfig{
			Socket:        filepath.Join(base, "r.sock"),
			Shards:        2,
			Dir:           filepath.Join(base, "state"),
			Pace:          0,
			ProbeInterval: time.Hour, // only the forwards touch the shard
			DiskIO: func(i int) diskio.IO {
				if i == 0 {
					return disk
				}
				return nil
			},
		})
		ids := idsOwnedBy(t, r, 0, 2)
		first, second := dial(t, r.cfg.Socket), dial(t, r.cfg.Socket)
		disk.stalled.Store(true)
		// The first submit holds the shard's driver in a stalled fsync; the
		// second request then waits in the shard's ingress ring.
		firstDone := make(chan error, 1)
		go func() {
			_, err := first.send(Message{Op: "submit", ID: ids[0], Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
			firstDone <- err
		}()
		waitFor(t, func() bool { return disk.stalls.Load() > 0 })
		secondDone := make(chan Response, 1)
		go func() {
			resp, err := second.send(Message{Op: "status", ID: ids[1]})
			if err != nil {
				resp = Response{Error: err.Error()}
			}
			secondDone <- resp
		}()
		srv := r.shards[0].srv
		waitFor(t, func() bool { return len(srv.reqCh) > 0 })
		if err := r.KillShard(0); err != nil {
			t.Fatalf("KillShard: %v", err)
		}
		disk.stalled.Store(false)
		resp := <-secondDone
		if resp.OK || resp.Code != CodeShardUnavailable || resp.Shard != 0 || resp.RetryAfterSecs <= 0 {
			t.Fatalf("forward caught by the kill: %+v, want typed %s", resp, CodeShardUnavailable)
		}
		if err := <-firstDone; err != nil {
			t.Fatalf("in-flight submit: %v", err)
		}
	})
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterShardGroupCommit: concurrent router connections reach one
// shard's ingress ring together, so the shard group-commits them — more
// requests than driver batches — while each submit stays acked and
// answerable. The shard's slow disk widens the window in which requests
// pile up behind an fsync. No shard binds a socket of its own.
func TestRouterShardGroupCommit(t *testing.T) {
	const conns, perConn = 16, 4
	base := t.TempDir()
	socket := filepath.Join(base, "r.sock")
	slow := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: 1, SlowSyncRate: 1})
	r := startTestRouter(t, RouterConfig{
		Socket:        socket,
		Shards:        2,
		Dir:           filepath.Join(base, "state"),
		Pace:          0,
		ProbeInterval: time.Hour, // only the submits reach the ring
		DiskIO: func(i int) diskio.IO {
			if i == 0 {
				return slow
			}
			return nil
		},
	})
	ids := idsOwnedBy(t, r, 0, conns*perConn)
	clients := make([]*client, conns)
	for i := range clients {
		clients[i] = dial(t, socket)
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, ids []string) {
			defer wg.Done()
			for _, id := range ids {
				resp, err := c.send(Message{Op: "submit", ID: id, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
				if err != nil || !resp.OK || resp.Shard != 0 {
					t.Errorf("submit %s: %+v (%v)", id, resp, err)
				}
			}
		}(c, ids[i*perConn:(i+1)*perConn])
	}
	wg.Wait()
	c := clients[0]
	for _, id := range ids {
		if st := c.call(t, Message{Op: "status", ID: id}); !st.OK || st.ID != id || st.Shard != 0 {
			t.Fatalf("status %s after its acked submit: %+v", id, st)
		}
	}
	met := c.call(t, Message{Op: "metrics"})
	sample := func(name string) float64 {
		t.Helper()
		prefix := name + `{shard="0"} `
		for _, line := range strings.Split(met.Report, "\n") {
			if strings.HasPrefix(line, prefix) {
				v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix), 64)
				if err != nil {
					t.Fatalf("sample %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("metrics scrape has no %s for shard 0", name)
		return 0
	}
	reqs, batches := sample("rotary_serve_ingress_requests_total"), sample("rotary_serve_ingress_batches_total")
	if reqs <= batches {
		t.Fatalf("shard 0 drained %v requests in %v batches: no group commit across connections", reqs, batches)
	}
	t.Logf("shard 0: %v requests in %v batches (%.2f per batch)", reqs, batches, reqs/batches)
	if leaked, _ := filepath.Glob(socket + ".shard*"); len(leaked) > 0 {
		t.Fatalf("shards bound sockets: %v", leaked)
	}
}

// TestRouterStaleShardSockets: SIGKILL leaves the router's socket file
// behind; the next start must reclaim it. Shards run in-process and bind
// no socket, so startup must leave no shard socket files either.
func TestRouterStaleShardSockets(t *testing.T) {
	base := t.TempDir()
	socket := filepath.Join(base, "r.sock")
	ln, err := net.Listen("unix", socket)
	if err != nil {
		t.Fatalf("plant socket %s: %v", socket, err)
	}
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()
	if _, err := os.Stat(socket); err != nil {
		t.Fatalf("stale socket not on disk: %v", err)
	}
	r := startTestRouter(t, RouterConfig{
		Socket: socket,
		Shards: 2,
		Dir:    filepath.Join(base, "state"),
		Pace:   0,
	})
	for i := 0; i < 2; i++ {
		if st, _ := r.ShardState(i); st != ShardRunning {
			t.Fatalf("shard %d is %v after stale-socket startup", i, st)
		}
	}
	c := dial(t, socket)
	if resp := c.call(t, Message{Op: "health"}); !resp.OK || resp.Status != "healthy" {
		t.Fatalf("health on the reclaimed socket: %+v", resp)
	}
	if leaked, _ := filepath.Glob(socket + ".shard*"); len(leaked) > 0 {
		t.Fatalf("startup created shard sockets: %v", leaked)
	}
}

// TestRouterStartupShardFailureIsolated: a shard whose stack fails to
// build at boot is marked down — the daemon still comes up and serves
// the healthy shards.
func TestRouterStartupShardFailureIsolated(t *testing.T) {
	base := t.TempDir()
	build := func(index int, store *core.CheckpointStore) (*core.AQPExecutor, *tpch.Catalog, *obs.Registry, error) {
		if index == 0 {
			return nil, nil, nil, errors.New("injected: shard 0 build failure")
		}
		return testShardBuilder(index, store)
	}
	r := startTestRouter(t, RouterConfig{
		Socket:         filepath.Join(base, "r.sock"),
		Shards:         2,
		Dir:            filepath.Join(base, "state"),
		Build:          build,
		Pace:           0,
		RestartBackoff: time.Hour, // one failed boot, no retry churn during the test
	})
	c := dial(t, r.cfg.Socket)
	h := c.call(t, Message{Op: "health"})
	if !h.OK || !strings.Contains(h.Status, "degraded") {
		t.Fatalf("health: %+v", h)
	}
	if resp := c.call(t, Message{Op: "submit", ID: idOwnedBy(t, r, 1), Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK || resp.Shard != 1 {
		t.Fatalf("submit to healthy shard: %+v", resp)
	}
	dead := c.call(t, Message{Op: "submit", ID: idOwnedBy(t, r, 0), Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if dead.OK || dead.Code != CodeShardUnavailable {
		t.Fatalf("submit to failed shard: %+v", dead)
	}
	sh := c.call(t, Message{Op: "shards"})
	if !sh.OK || sh.Shards[0].State == "running" || sh.Shards[0].Error == "" {
		t.Fatalf("shards report hides the boot failure: %+v", sh)
	}
}

// TestRouterRetire: retiring a shard migrates its tracked jobs to their
// ring successors, drains it, and reroutes future traffic around it —
// permanently and idempotently.
func TestRouterRetire(t *testing.T) {
	base := t.TempDir()
	r := startTestRouter(t, RouterConfig{
		Socket: filepath.Join(base, "r.sock"),
		Shards: 2,
		Dir:    filepath.Join(base, "state"),
		Pace:   0,
	})
	c := dial(t, r.cfg.Socket)
	onZero, onOne := idOwnedBy(t, r, 0), idOwnedBy(t, r, 1)
	for _, id := range []string{onZero, onOne} {
		if resp := c.call(t, Message{Op: "submit", ID: id, Statement: "q1 ACC MIN 99% WITHIN 900 SECONDS"}); !resp.OK {
			t.Fatalf("submit %s: %+v", id, resp)
		}
	}
	if resp := c.call(t, Message{Op: "advance", Seconds: 20}); !resp.OK {
		t.Fatalf("advance: %+v", resp)
	}
	ret := c.call(t, Message{Op: "retire", Shard: 0})
	if !ret.OK || ret.Status != "retired" || ret.Jobs != 1 {
		t.Fatalf("retire: %+v", ret)
	}
	if st, _ := r.ShardState(0); st != ShardRetired {
		t.Fatalf("shard 0 is %v after retire", st)
	}
	// The migrated job answers from its new home.
	st := c.call(t, Message{Op: "status", ID: onZero})
	if !st.OK || st.Shard != 1 {
		t.Fatalf("status %s after retire: %+v", onZero, st)
	}
	// New work that would hash to the retired shard reroutes.
	reroute := c.call(t, Message{Op: "submit", ID: idOwnedBy(t, r, 0) + "-late", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if !reroute.OK || reroute.Shard != 1 {
		t.Fatalf("post-retire submit: %+v", reroute)
	}
	// Retire is idempotent.
	again := c.call(t, Message{Op: "retire", Shard: 0})
	if !again.OK || again.Code != CodeShardRetired {
		t.Fatalf("second retire: %+v", again)
	}
	if resp := c.call(t, Message{Op: "advance", Seconds: 3000}); !resp.OK {
		t.Fatalf("advance: %+v", resp)
	}
	for _, id := range []string{onZero, onOne, reroute.ID} {
		resp := c.call(t, Message{Op: "status", ID: id})
		if !resp.OK || !terminalStatus(resp.Status) {
			t.Fatalf("job %s not terminal after retire: %+v", id, resp)
		}
	}
	if dr := c.call(t, Message{Op: "drain"}); !dr.OK {
		t.Fatalf("drain: %+v", dr)
	}
}

// TestRouterResponseCodes pins the machine-readable Code on each
// router-level error class, so clients can branch without
// string-matching Error.
func TestRouterResponseCodes(t *testing.T) {
	base := t.TempDir()
	r := startTestRouter(t, RouterConfig{
		Socket: filepath.Join(base, "r.sock"),
		Shards: 2,
		Dir:    filepath.Join(base, "state"),
		Pace:   0,
	})
	c := dial(t, r.cfg.Socket)
	if resp := c.call(t, Message{Op: "submit", ID: "vc", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK {
		t.Fatalf("submit: %+v", resp)
	}
	cases := []struct {
		name string
		m    Message
		code string
		ok   bool
	}{
		{"unknown op", Message{Op: "bogus"}, CodeUnknownOp, false},
		{"status without id", Message{Op: "status"}, CodeBadRequest, false},
		{"negative advance", Message{Op: "advance", Seconds: -1}, CodeBadRequest, false},
		{"migrate without id", Message{Op: "migrate", Shard: 1}, CodeBadRequest, false},
		{"migrate unknown job", Message{Op: "migrate", ID: "nope", Shard: 1}, CodeUnknownJob, false},
		{"migrate bad shard", Message{Op: "migrate", ID: "vc", Shard: 7}, CodeBadShard, false},
		{"migrate negative shard", Message{Op: "migrate", ID: "vc", Shard: -2}, CodeBadShard, false},
		{"retire bad shard", Message{Op: "retire", Shard: 99}, CodeBadShard, false},
		{"trace-tail bad shard", Message{Op: "trace-tail", Shard: 31}, CodeBadShard, false},
	}
	for _, tc := range cases {
		resp := c.call(t, tc.m)
		if resp.OK != tc.ok || resp.Code != tc.code {
			t.Errorf("%s: got ok=%v code=%q, want ok=%v code=%q (%+v)", tc.name, resp.OK, resp.Code, tc.ok, tc.code, resp)
		}
	}
	// Migrate to the job's own shard is an explicit no-op, not an error.
	own := c.call(t, Message{Op: "status", ID: "vc"})
	noop := c.call(t, Message{Op: "migrate", ID: "vc", Shard: own.Shard})
	if !noop.OK || noop.Code != CodeMigrateNoop {
		t.Errorf("same-shard migrate: %+v", noop)
	}
}

// TestRouterOversizedRequestLine mirrors the single server's oversized
// handling on the router socket: a typed too-large reply, then the
// connection closes.
func TestRouterOversizedRequestLine(t *testing.T) {
	base := t.TempDir()
	r := startTestRouter(t, RouterConfig{
		Socket: filepath.Join(base, "r.sock"),
		Shards: 1,
		Dir:    filepath.Join(base, "state"),
		Pace:   0,
	})
	conn, err := net.Dial("unix", r.cfg.Socket)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	big := append(bytes.Repeat([]byte("a"), maxLineBytes+16), '\n')
	if _, err := conn.Write(big); err != nil {
		t.Fatalf("write oversized line: %v", err)
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no reply to oversized request: %v", err)
	}
	if resp.OK || resp.Code != CodeTooLarge {
		t.Fatalf("oversized reply: %+v", resp)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("connection still open after oversized request")
	}
}
