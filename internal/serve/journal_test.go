package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func openTestJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	t.Cleanup(func() { jl.Close() })
	return jl
}

// TestJournalRoundTrip appends a full job lifecycle, reopens the journal,
// and checks the recovered state: statuses, arrival order, clock
// position, and the incremented server epoch.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	if jl.ServerEpoch() != 1 {
		t.Fatalf("first incarnation epoch %d, want 1", jl.ServerEpoch())
	}
	recs := []Record{
		{Kind: recSubmit, ID: "a", ReqID: "r-a", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", BatchRows: 64, At: 1},
		{Kind: recVerdict, ID: "a", Status: "admitted", At: 1},
		{Kind: recSubmit, ID: "b", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 2},
		{Kind: recVerdict, ID: "b", Status: "degraded", At: 2},
		{Kind: recGrant, ID: "a", At: 3},
		{Kind: recEpoch, ID: "a", Epochs: 1, At: 9},
		{Kind: recSubmit, ID: "c", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 10},
		{Kind: recVerdict, ID: "c", Status: "rejected", At: 10},
		{Kind: recGrant, ID: "a", At: 11},
		{Kind: recTerminal, ID: "a", Status: "attained", Epochs: 2, At: 20},
		{Kind: recClock, At: 60},
	}
	if err := jl.Append(recs...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	jl.Close()

	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if rec.ServerEpoch != 2 || re.ServerEpoch() != 2 {
		t.Fatalf("second incarnation epoch %d/%d, want 2", rec.ServerEpoch, re.ServerEpoch())
	}
	if rec.VirtualNow != 60 {
		t.Fatalf("recovered clock %v, want 60", rec.VirtualNow)
	}
	if rec.DroppedBytes != 0 {
		t.Fatalf("clean journal dropped %d bytes", rec.DroppedBytes)
	}
	if len(rec.Jobs) != 3 {
		t.Fatalf("recovered %d jobs, want 3: %+v", len(rec.Jobs), rec.Jobs)
	}
	// Arrival order is preserved.
	for i, want := range []string{"a", "b", "c"} {
		if rec.Jobs[i].ID != want {
			t.Fatalf("arrival order %v, want a,b,c", rec.Jobs)
		}
	}
	byID := map[string]JobRecord{}
	for _, j := range rec.Jobs {
		byID[j.ID] = j
	}
	if j := byID["a"]; j.Status != "attained" || j.Epochs != 2 || j.ReqID != "r-a" || j.ArrivalAt != 1 {
		t.Fatalf("job a recovered as %+v", j)
	}
	if j := byID["b"]; j.Status != "pending" || !j.BestEffort {
		t.Fatalf("degraded job b recovered as %+v", j)
	}
	if j := byID["c"]; j.Status != "rejected" {
		t.Fatalf("rejected job c recovered as %+v", j)
	}
	live := rec.NonTerminal()
	if len(live) != 1 || live[0].ID != "b" {
		t.Fatalf("non-terminal set %+v, want only b", live)
	}
	ids := re.NonTerminalIDs()
	if !ids["b"] || ids["a"] || ids["c"] {
		t.Fatalf("NonTerminalIDs %v", ids)
	}
}

// TestJournalCompaction drives the journal past a tiny compaction
// threshold and checks the file is folded into a snapshot that replays to
// the same state.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	jl.SetCompactBytes(512)
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("j%02d", i)
		if err := jl.Append(
			Record{Kind: recSubmit, ID: id, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: float64(i)},
			Record{Kind: recVerdict, ID: id, Status: "admitted", At: float64(i)},
			Record{Kind: recTerminal, ID: id, Status: "attained", At: float64(i) + 0.5},
		); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	_, compactions, size := jl.Stats()
	if compactions == 0 {
		t.Fatalf("no compaction after %d appends over a 512-byte threshold", 64*3)
	}
	if size > 64*1024 {
		t.Fatalf("journal still %d bytes after compaction", size)
	}
	jl.Close()

	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if len(rec.Jobs) != 64 {
		t.Fatalf("post-compaction replay recovered %d jobs, want 64", len(rec.Jobs))
	}
	for i, j := range rec.Jobs {
		if want := fmt.Sprintf("j%02d", i); j.ID != want || j.Status != "attained" {
			t.Fatalf("job %d recovered as %+v, want %s attained", i, j, want)
		}
	}
}

// journalWithPrefix writes a known two-job journal and returns the byte
// length of its valid content, for the corruption tests to damage.
func journalWithPrefix(t *testing.T, dir string) int64 {
	t.Helper()
	jl := openTestJournal(t, dir)
	if err := jl.Append(
		Record{Kind: recSubmit, ID: "keep", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 1},
		Record{Kind: recVerdict, ID: "keep", Status: "admitted", At: 1},
		Record{Kind: recSubmit, ID: "tail", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 2},
	); err != nil {
		t.Fatalf("Append: %v", err)
	}
	jl.Close()
	st, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatalf("stat journal: %v", err)
	}
	return st.Size()
}

// TestJournalCorruptTruncatedTail tears the last record mid-line (a
// crash during an append): recovery must degrade to the longest valid
// prefix, not refuse to start.
func TestJournalCorruptTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	journalWithPrefix(t, dir)
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the final line's newline and half its payload.
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	torn := data[:cut+(len(data)-cut)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if rec.DroppedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	// The torn line was the "tail" submit itself, so only "keep" (and its
	// verdict) survive in the valid prefix.
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "keep" || rec.Jobs[0].Status != "pending" {
		t.Fatalf("prefix replay recovered %+v, want only keep (pending)", rec.Jobs)
	}
	// The journal file itself must have been truncated back to the valid
	// prefix plus the new incarnation's server-epoch record, so the next
	// restart replays cleanly.
	re.Close()
	clean := openTestJournal(t, dir)
	if got := clean.Recovered(); got.DroppedBytes != 0 {
		t.Fatalf("journal still corrupt after truncating recovery: %+v", got)
	}
}

// TestJournalCorruptBadCRC flips a payload byte in the last record (a
// bit-flipped disk block): the CRC must mark the end of the valid prefix.
func TestJournalCorruptBadCRC(t *testing.T) {
	dir := t.TempDir()
	journalWithPrefix(t, dir)
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the final record's JSON payload.
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if rec.DroppedBytes == 0 {
		t.Fatalf("CRC mismatch not detected: %+v", rec)
	}
	// The flipped record was the "tail" submit: only the first two
	// records survive, so only "keep" is recovered.
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "keep" {
		t.Fatalf("prefix replay recovered %+v, want only keep", rec.Jobs)
	}
	if rec.Jobs[0].Status != "pending" {
		t.Fatalf("keep recovered as %q, want pending", rec.Jobs[0].Status)
	}
}

// TestJournalFrameErrorMidBatch injects a frame error on the middle
// record of a three-record group: Append must leave both the in-memory
// mirror and the file exactly as they were — the historical bug folded
// each record into memory before framing it, so a mid-batch frame error
// left memory ahead of disk and compaction could snapshot state the file
// never held.
func TestJournalFrameErrorMidBatch(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	if err := jl.Append(
		Record{Kind: recSubmit, ID: "keep", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 1},
		Record{Kind: recVerdict, ID: "keep", Status: "admitted", At: 1},
	); err != nil {
		t.Fatalf("Append: %v", err)
	}
	appendsBefore, _, sizeBefore := jl.Stats()

	jl.frameHook = func(rec Record) ([]byte, error) {
		if rec.ID == "boom" {
			return nil, fmt.Errorf("injected frame error")
		}
		return frameJournalLine(rec)
	}
	err := jl.Append(
		Record{Kind: recSubmit, ID: "ghost", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 2},
		Record{Kind: recSubmit, ID: "boom", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 2},
		Record{Kind: recSubmit, ID: "late", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 2},
	)
	if err == nil {
		t.Fatal("Append with injected frame error succeeded")
	}
	jl.frameHook = nil

	// Nothing from the failed group may be visible in memory — not even
	// the records framed before the error.
	for _, id := range []string{"ghost", "boom", "late"} {
		if _, ok := jl.Job(id); ok {
			t.Fatalf("record %q from failed group folded into memory", id)
		}
	}
	if appends, _, size := jl.Stats(); appends != appendsBefore || size != sizeBefore {
		t.Fatalf("failed group moved stats: appends %d→%d size %d→%d",
			appendsBefore, appends, sizeBefore, size)
	}
	// A frame error is not a torn write: the journal stays healthy.
	if err := jl.Append(Record{Kind: recClock, At: 3}); err != nil {
		t.Fatalf("append after frame error: %v", err)
	}
	jl.Close()

	// Disk agreement: a fresh replay sees exactly what memory saw.
	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if rec.DroppedBytes != 0 {
		t.Fatalf("frame-error group left %d corrupt bytes on disk", rec.DroppedBytes)
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "keep" {
		t.Fatalf("replay after frame error recovered %+v, want only keep", rec.Jobs)
	}
	if rec.VirtualNow != 3 {
		t.Fatalf("replay clock %v, want 3", rec.VirtualNow)
	}
}

// TestJournalDegradedLatchAfterTornWrite injects a write error that tears
// a frame mid-record: the journal must latch degraded and refuse further
// appends — the historical bug kept writing past the tear, and
// longest-valid-prefix recovery silently dropped every post-tear record.
func TestJournalDegradedLatchAfterTornWrite(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	if err := jl.Append(
		Record{Kind: recSubmit, ID: "keep", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 1},
		Record{Kind: recVerdict, ID: "keep", Status: "admitted", At: 1},
	); err != nil {
		t.Fatalf("Append: %v", err)
	}

	// Write half the group's bytes for real, then fail: a torn frame now
	// ends the file.
	jl.writeHook = func(b []byte) (int, error) {
		n, _ := jl.f.Write(b[:len(b)/2])
		return n, fmt.Errorf("injected write error")
	}
	err := jl.Append(Record{Kind: recSubmit, ID: "torn", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 2})
	if err == nil {
		t.Fatal("Append with injected write error succeeded")
	}
	jl.writeHook = nil

	if jl.Degraded() == nil {
		t.Fatal("journal not latched degraded after torn write")
	}
	if _, ok := jl.Job("torn"); ok {
		t.Fatal("torn record folded into memory")
	}
	// Post-tear appends must be refused, not written past the tear where
	// replay could never read them.
	err = jl.Append(Record{Kind: recSubmit, ID: "lost", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 3})
	if err == nil || !errors.Is(err, ErrJournalDegraded) {
		t.Fatalf("post-tear append error = %v, want ErrJournalDegraded", err)
	}
	jl.Close()

	// Recovery degrades to the pre-tear prefix; nothing after the tear was
	// accepted, so nothing after the tear is lost.
	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if rec.DroppedBytes == 0 {
		t.Fatalf("torn frame not detected on replay: %+v", rec)
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "keep" || rec.Jobs[0].Status != "pending" {
		t.Fatalf("post-tear replay recovered %+v, want only keep (pending)", rec.Jobs)
	}
}

// TestJournalGarbageFile starts from a file of pure garbage: everything
// is dropped, recovery proceeds from empty state.
func TestJournalGarbageFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte("not a journal\nat all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	jl := openTestJournal(t, dir)
	rec := jl.Recovered()
	if rec.DroppedBytes == 0 || len(rec.Jobs) != 0 {
		t.Fatalf("garbage journal recovered %+v", rec)
	}
	// And the journal is writable again.
	if err := jl.Append(Record{Kind: recClock, At: 1}); err != nil {
		t.Fatalf("append after garbage recovery: %v", err)
	}
}

// lifecycleGroup returns one job's submit, verdict and terminal records.
func lifecycleGroup(id string, at float64) []Record {
	return []Record{
		{Kind: recSubmit, ID: id, ReqID: "r-" + id, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: at},
		{Kind: recVerdict, ID: id, Status: "admitted", At: at},
		{Kind: recTerminal, ID: id, Status: "attained", Epochs: 2, At: at + 0.5},
	}
}

// historyGroup is n jobs' lifecycles as one Append group.
func historyGroup(prefix string, n int) []Record {
	var recs []Record
	for i := 0; i < n; i++ {
		recs = append(recs, lifecycleGroup(fmt.Sprintf("%s%04d", prefix, i), float64(i))...)
	}
	return recs
}

// TestJournalNoCompactionPerCommitPastThreshold pins the end of the
// compaction cliff: once the snapshot alone exceeds compactBytes, a
// size-only trigger compacted again on every commit. The snapshot-
// relative trigger waits for a tail as large as the snapshot.
func TestJournalNoCompactionPerCommitPastThreshold(t *testing.T) {
	jl := openTestJournal(t, t.TempDir())
	jl.SetCompactBytes(2048)
	if err := jl.Append(historyGroup("h", 100)...); err != nil {
		t.Fatalf("Append history: %v", err)
	}
	_, compactions, size := jl.Stats()
	if compactions != 1 || size <= 2048 {
		t.Fatalf("history left %d compactions and a %d-byte segment, want 1 compaction to a snapshot over 2048 bytes", compactions, size)
	}
	for i := 0; i < 10; i++ {
		if err := jl.Append(Record{Kind: recClock, At: float64(200 + i)}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if _, c, _ := jl.Stats(); c != compactions {
		t.Fatalf("10 single-record appends ran %d compactions, want 0", c-compactions)
	}
}

// TestJournalCompactionWriteBound checks the trigger's amortization
// over a long run: the snapshots compaction writes add up to at most the
// bytes appended plus one snapshot.
func TestJournalCompactionWriteBound(t *testing.T) {
	jl := openTestJournal(t, t.TempDir())
	jl.SetCompactBytes(1024)
	_, seen, appended := jl.Stats() // appended starts at the boot record
	var written, lastSnap int64
	for i := 0; i < 600; i++ {
		recs := lifecycleGroup(fmt.Sprintf("j%04d", i), float64(i))
		if i%3 == 0 {
			recs = recs[:2] // leave some jobs live
		}
		for _, rec := range recs {
			line, err := frameJournalLine(rec)
			if err != nil {
				t.Fatal(err)
			}
			appended += int64(len(line))
		}
		if err := jl.Append(recs...); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if _, c, size := jl.Stats(); c > seen {
			written += size // the segment is exactly the new snapshot
			lastSnap = size
			seen = c
		}
	}
	if seen < 3 {
		t.Fatalf("only %d compactions; the run is too short to test amortization", seen)
	}
	if written > appended+lastSnap {
		t.Fatalf("compaction wrote %d bytes over %d compactions, more than %d appended + %d (one snapshot)",
			written, seen, appended, lastSnap)
	}
}

// TestJournalReopenUncompactedTail reopens journals whose active
// segment — compacted or heal-rolled — carries a large tail the trigger
// has not yet folded. Replay must yield exactly what the folded form
// would, and the reopened journal must pick the trigger up where it was
// (a size-only trigger compacted again at boot).
func TestJournalReopenUncompactedTail(t *testing.T) {
	for _, healed := range []bool{false, true} {
		name := "compacted"
		if healed {
			name = "heal-rolled"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			jl, err := OpenJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			jl.SetCompactBytes(1024)
			if err := jl.Append(historyGroup("h", 60)...); err != nil {
				t.Fatalf("Append history: %v", err)
			}
			if healed {
				jl.writeHook = func([]byte) (int, error) { return 0, fmt.Errorf("injected write error") }
				if err := jl.Append(Record{Kind: recClock, At: 100}); err == nil {
					t.Fatal("Append with injected write error succeeded")
				}
				jl.writeHook = nil
				if err := jl.Heal(); err != nil {
					t.Fatalf("Heal: %v", err)
				}
			}
			// A tail of new jobs and transitions of snapshotted live ones,
			// well past compactBytes but shorter than the snapshot.
			for i := 0; i < 25; i++ {
				id := fmt.Sprintf("t%02d", i)
				if err := jl.Append(
					Record{Kind: recSubmit, ID: id, Statement: "q3 ACC MIN 55% WITHIN 2000 SECONDS", Tenant: "beta", At: float64(200 + i)},
					Record{Kind: recVerdict, ID: id, Status: "degraded", At: float64(200 + i)},
					Record{Kind: recGrant, ID: id, At: float64(201 + i)},
				); err != nil {
					t.Fatalf("Append tail %d: %v", i, err)
				}
			}
			_, compactions, size := jl.Stats()
			seg := jl.Segment()
			jl.Close()
			if size <= 1024 || compactions != 1 {
				t.Fatalf("tail setup: %d-byte segment after %d compactions, want > 1024 bytes after 1", size, compactions)
			}

			// The folded form: the records compaction (or heal) would
			// write for the same state.
			want, err := ReplayJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			folded := t.TempDir()
			snap := Record{Kind: recSnapshot, ServerEpoch: want.ServerEpoch, At: want.VirtualNow, Jobs: want.Jobs}
			content, err := frameJournalLine(snap)
			if err != nil {
				t.Fatal(err)
			}
			if healed {
				bar, err := frameJournalLine(Record{Kind: recBarrier, ServerEpoch: want.ServerEpoch, At: want.VirtualNow, Heals: int(want.Heals)})
				if err != nil {
					t.Fatal(err)
				}
				content = append(content, bar...)
			}
			if err := os.WriteFile(filepath.Join(folded, segmentName(seg)), content, 0o644); err != nil {
				t.Fatal(err)
			}

			re := openTestJournal(t, dir)
			ref := openTestJournal(t, folded)
			if got, exp := re.Recovered(), ref.Recovered(); !reflect.DeepEqual(got, exp) {
				t.Fatalf("reopened tail recovered\n%+v\nfolded journal recovers\n%+v", got, exp)
			}
			if _, c, _ := re.Stats(); c != 0 {
				t.Fatalf("reopening a tail shorter than its snapshot compacted %d times", c)
			}
			// The trigger resumes against the replayed snapshot size: a
			// few more records still do not compact.
			for i := 0; i < 5; i++ {
				if err := re.Append(Record{Kind: recClock, At: float64(300 + i)}); err != nil {
					t.Fatal(err)
				}
			}
			if _, c, _ := re.Stats(); c != 0 {
				t.Fatalf("%d compactions after a short post-restart tail, want 0", c)
			}
		})
	}
}
