package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rotary/internal/core"
	"rotary/internal/diskio"
)

// The traced pass records spans from decorators the benchmark passes in
// through public hooks: a diskio.IO under every durable directory and
// checkpoint store, and an AQPScheduler around each policy. The
// untraced pass passes neither, so it measures the stack operators run.

// diskClass says what a disk operation was for, from its file name.
type diskClass uint8

const (
	classAppend  diskClass = iota // journal segment appends
	classCompact                  // journal compaction temp file and rename
	classCkpt                     // checkpoint frames
	numDiskClasses
)

var diskClassNames = [numDiskClasses]string{"append", "compact", "ckpt"}

func classify(path string) diskClass {
	switch {
	case strings.Contains(filepath.ToSlash(path), "/ckpt"):
		return classCkpt
	case strings.HasSuffix(path, ".tmp"):
		return classCompact
	default:
		return classAppend
	}
}

type diskOp uint8

const (
	diskOpen diskOp = iota
	diskWrite
	diskSync
	diskRename
	diskSyncDir
	diskOther // remove, truncate
)

var diskOpNames = [...]string{"open", "write", "fsync", "rename", "syncdir", "other"}

// span is one timed interval in nanoseconds since the recorder's base.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// diskSpan is one decorated disk operation.
type diskSpan struct {
	span
	op    diskOp
	class diskClass
	bytes int64
}

// assignSpan is one decorated Assign call with its queue lengths.
type assignSpan struct {
	span
	pending, running int
}

// recorder collects decorator spans in memory. Shards call into it
// from their own driver goroutines, so appends are serialized.
type recorder struct {
	base time.Time

	mu     sync.Mutex
	disk   []diskSpan
	assign []assignSpan
}

func newRecorder(base time.Time) *recorder { return &recorder{base: base} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) addDisk(s diskSpan) {
	r.mu.Lock()
	r.disk = append(r.disk, s)
	r.mu.Unlock()
}

func (r *recorder) addAssign(s assignSpan) {
	r.mu.Lock()
	r.assign = append(r.assign, s)
	r.mu.Unlock()
}

// tracedIO decorates a diskio.IO, timing every mutating operation.
type tracedIO struct {
	inner diskio.IO
	rec   *recorder
}

func newTracedIO(rec *recorder) *tracedIO { return &tracedIO{inner: diskio.OS{}, rec: rec} }

func (t *tracedIO) timed(op diskOp, path string, bytes int64, f func() error) error {
	start := t.rec.now()
	err := f()
	t.rec.addDisk(diskSpan{span: span{start, t.rec.now()}, op: op, class: classify(path), bytes: bytes})
	return err
}

func (t *tracedIO) OpenFile(name string, flag int, perm os.FileMode) (diskio.File, error) {
	var f diskio.File
	err := t.timed(diskOpen, name, 0, func() (err error) {
		f, err = t.inner.OpenFile(name, flag, perm)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: f, io: t, path: name}, nil
}

func (t *tracedIO) ReadFile(name string) ([]byte, error)       { return t.inner.ReadFile(name) }
func (t *tracedIO) ReadDir(name string) ([]os.DirEntry, error) { return t.inner.ReadDir(name) }

func (t *tracedIO) Rename(oldpath, newpath string) error {
	return t.timed(diskRename, oldpath, 0, func() error { return t.inner.Rename(oldpath, newpath) })
}

func (t *tracedIO) Remove(name string) error {
	return t.timed(diskOther, name, 0, func() error { return t.inner.Remove(name) })
}

func (t *tracedIO) Truncate(name string, size int64) error {
	return t.timed(diskOther, name, 0, func() error { return t.inner.Truncate(name, size) })
}

func (t *tracedIO) MkdirAll(path string, perm os.FileMode) error { return t.inner.MkdirAll(path, perm) }

// SyncDir outside a checkpoint directory follows a compaction rename.
func (t *tracedIO) SyncDir(dir string) error {
	path := dir
	if classify(dir) != classCkpt {
		path = dir + ".tmp"
	}
	return t.timed(diskSyncDir, path, 0, func() error { return t.inner.SyncDir(dir) })
}

// tracedFile times writes and fsyncs on one opened file.
type tracedFile struct {
	inner diskio.File
	io    *tracedIO
	path  string
}

func (f *tracedFile) Write(p []byte) (int, error) {
	var n int
	err := f.io.timed(diskWrite, f.path, int64(len(p)), func() (err error) {
		n, err = f.inner.Write(p)
		return err
	})
	return n, err
}

func (f *tracedFile) Sync() error {
	return f.io.timed(diskSync, f.path, 0, f.inner.Sync)
}

func (f *tracedFile) Close() error { return f.inner.Close() }

// tracedSched decorates a policy, timing Assign and recording the queue
// lengths it saw. wrapScheduler picks the variant that forwards exactly
// the optional interfaces the wrapped policy implements, so the fast
// path treats the decorated policy as it treats the bare one.
type tracedSched struct {
	inner core.AQPScheduler
	rec   *recorder
}

func (t *tracedSched) Name() string { return t.inner.Name() }

func (t *tracedSched) Assign(ctx *core.AQPContext) []core.AQPGrant {
	start := t.rec.now()
	grants := t.inner.Assign(ctx)
	t.rec.addAssign(assignSpan{span: span{start, t.rec.now()}, pending: len(ctx.Pending), running: len(ctx.Running)})
	return grants
}

type tracedProfiled struct{ *tracedSched }

func (t tracedProfiled) ArbiterProfile() core.ArbiterProfile {
	return t.inner.(core.ProfiledAQPScheduler).ArbiterProfile()
}

type tracedCommitter struct{ *tracedSched }

func (t tracedCommitter) CommitReplay(ctx *core.AQPContext, grants []core.AQPGrant) {
	t.inner.(core.AQPReplayCommitter).CommitReplay(ctx, grants)
}

type tracedProfiledCommitter struct{ *tracedSched }

func (t tracedProfiledCommitter) ArbiterProfile() core.ArbiterProfile {
	return t.inner.(core.ProfiledAQPScheduler).ArbiterProfile()
}

func (t tracedProfiledCommitter) CommitReplay(ctx *core.AQPContext, grants []core.AQPGrant) {
	t.inner.(core.AQPReplayCommitter).CommitReplay(ctx, grants)
}

func wrapScheduler(inner core.AQPScheduler, rec *recorder) core.AQPScheduler {
	t := &tracedSched{inner: inner, rec: rec}
	_, profiled := inner.(core.ProfiledAQPScheduler)
	_, commits := inner.(core.AQPReplayCommitter)
	switch {
	case profiled && commits:
		return tracedProfiledCommitter{t}
	case profiled:
		return tracedProfiled{t}
	case commits:
		return tracedCommitter{t}
	default:
		return t
	}
}
