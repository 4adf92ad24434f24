package serve

import (
	"fmt"
	"testing"
)

// benchHistoryJobs is the terminal-job history the journal benchmarks
// start from: a long-lived daemon whose snapshot is well past
// DefaultCompactBytes.
const benchHistoryJobs = 20000

// seedBenchJournal journals benchHistoryJobs terminal lifecycles under
// dir in one group (one fsync, one compaction) and closes the journal.
func seedBenchJournal(b *testing.B, dir string) {
	b.Helper()
	jl, err := OpenJournal(dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := jl.Append(historyGroup("h", benchHistoryJobs)...); err != nil {
		b.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJournalAppend measures one durable submit+verdict group
// commit on top of the history: framing, write, fsync, and whatever
// compaction the trigger charges to it.
func BenchmarkJournalAppend(b *testing.B) {
	dir := b.TempDir()
	seedBenchJournal(b, dir)
	jl, err := OpenJournal(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer jl.Close()
	ids := make([]string, b.N)
	for i := range ids {
		ids[i] = fmt.Sprintf("b%07d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, id := range ids {
		if err := jl.Append(
			Record{Kind: recSubmit, ID: id, ReqID: id, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: float64(benchHistoryJobs + i)},
			Record{Kind: recVerdict, ID: id, Status: "admitted", At: float64(benchHistoryJobs + i)},
		); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalOpen measures a daemon restart's journal half over the
// history: replay, the boot server-epoch record, and close.
func BenchmarkJournalOpen(b *testing.B) {
	dir := b.TempDir()
	seedBenchJournal(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jl, err := OpenJournal(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := jl.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
