package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fsapi"
	"repro/internal/fswire"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one workload operation share op.
type span struct {
	name       string
	id, parent int64 // parent 0: no enclosing span
	op         int64 // workload op index, -1 when no op was in flight
	start, end int64 // ns since the tracer's epoch
}

// keepSpans bounds the spans retained for the span file; later spans are
// still folded into the per-layer totals.
const keepSpans = 1 << 16

// layerTime is the time folded for one span name.
type layerTime struct {
	count int64
	total int64 // ns: sum of span durations
	self  int64 // ns: durations minus the union of their children
}

// tracer keeps spans in memory. fold turns recorded spans into per-name
// totals and self times; the run loops call it when no op is in flight, so a
// span's children are folded with it.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu      sync.Mutex
	pending []span
	kept    []span
	dropped int64
	layers  map[string]*layerTime
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), layers: map[string]*layerTime{}}
}

func (t *tracer) now() int64   { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.pending = append(t.pending, s)
	t.mu.Unlock()
}

// fold folds every pending span into the per-name totals.
func (t *tracer) fold() {
	t.mu.Lock()
	batch := t.pending
	t.pending = nil
	t.mu.Unlock()
	for name, lt := range foldSpans(batch) {
		acc := t.layers[name]
		if acc == nil {
			acc = &layerTime{}
			t.layers[name] = acc
		}
		acc.count += lt.count
		acc.total += lt.total
		acc.self += lt.self
	}
	room := keepSpans - len(t.kept)
	if room > len(batch) {
		room = len(batch)
	}
	t.kept = append(t.kept, batch[:room]...)
	t.dropped += int64(len(batch) - room)
}

// foldSpans sums durations and self times by span name. A span's self time
// is its duration minus the length of the union of its children's intervals
// clipped to its own: children that overlap each other (device IO issued
// while a recovery runs, concurrent recovery stages) are counted once.
func foldSpans(spans []span) map[string]layerTime {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.name]
		d := s.end - s.start
		lt.count++
		lt.total += d
		lt.self += d - unionWithin(children[s.id], s.start, s.end)
		out[s.name] = lt
	}
	return out
}

// unionWithin returns the length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var covered, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			covered += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		covered += curHi - curLo
	}
	return covered
}

// totals returns the folded time of one span name.
func (t *tracer) totals(name string) layerTime {
	if lt := t.layers[name]; lt != nil {
		return *lt
	}
	return layerTime{}
}

// write stores the retained spans as tab-separated text.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# spans kept %d, dropped %d\nid\tparent\top\tname\tstart_ns\tend_ns\n", len(t.kept), t.dropped)
	for _, s := range t.kept {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hookFS runs every fsapi.FS call through around, which times it. call
// returns the call's error so around can see whether it succeeded.
type hookFS struct {
	fs     fsapi.FS
	around func(method string, call func() error)
}

func (h *hookFS) Mkdir(path string, perm uint16) error {
	var err error
	h.around("Mkdir", func() error { err = h.fs.Mkdir(path, perm); return err })
	return err
}

func (h *hookFS) Rmdir(path string) error {
	var err error
	h.around("Rmdir", func() error { err = h.fs.Rmdir(path); return err })
	return err
}

func (h *hookFS) Create(path string, perm uint16) (fsapi.FD, error) {
	var fd fsapi.FD
	var err error
	h.around("Create", func() error { fd, err = h.fs.Create(path, perm); return err })
	return fd, err
}

func (h *hookFS) Open(path string) (fsapi.FD, error) {
	var fd fsapi.FD
	var err error
	h.around("Open", func() error { fd, err = h.fs.Open(path); return err })
	return fd, err
}

func (h *hookFS) Close(fd fsapi.FD) error {
	var err error
	h.around("Close", func() error { err = h.fs.Close(fd); return err })
	return err
}

func (h *hookFS) ReadAt(fd fsapi.FD, off int64, n int) ([]byte, error) {
	var b []byte
	var err error
	h.around("ReadAt", func() error { b, err = h.fs.ReadAt(fd, off, n); return err })
	return b, err
}

func (h *hookFS) WriteAt(fd fsapi.FD, off int64, data []byte) (int, error) {
	var n int
	var err error
	h.around("WriteAt", func() error { n, err = h.fs.WriteAt(fd, off, data); return err })
	return n, err
}

func (h *hookFS) Truncate(path string, size int64) error {
	var err error
	h.around("Truncate", func() error { err = h.fs.Truncate(path, size); return err })
	return err
}

func (h *hookFS) Unlink(path string) error {
	var err error
	h.around("Unlink", func() error { err = h.fs.Unlink(path); return err })
	return err
}

func (h *hookFS) Rename(oldPath, newPath string) error {
	var err error
	h.around("Rename", func() error { err = h.fs.Rename(oldPath, newPath); return err })
	return err
}

func (h *hookFS) Link(oldPath, newPath string) error {
	var err error
	h.around("Link", func() error { err = h.fs.Link(oldPath, newPath); return err })
	return err
}

func (h *hookFS) Symlink(target, linkPath string) error {
	var err error
	h.around("Symlink", func() error { err = h.fs.Symlink(target, linkPath); return err })
	return err
}

func (h *hookFS) Readlink(path string) (string, error) {
	var s string
	var err error
	h.around("Readlink", func() error { s, err = h.fs.Readlink(path); return err })
	return s, err
}

func (h *hookFS) Stat(path string) (fsapi.Stat, error) {
	var st fsapi.Stat
	var err error
	h.around("Stat", func() error { st, err = h.fs.Stat(path); return err })
	return st, err
}

func (h *hookFS) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	var st fsapi.Stat
	var err error
	h.around("Fstat", func() error { st, err = h.fs.Fstat(fd); return err })
	return st, err
}

func (h *hookFS) Readdir(path string) ([]fsapi.DirEntry, error) {
	var ents []fsapi.DirEntry
	var err error
	h.around("Readdir", func() error { ents, err = h.fs.Readdir(path); return err })
	return ents, err
}

func (h *hookFS) SetPerm(path string, perm uint16) error {
	var err error
	h.around("SetPerm", func() error { err = h.fs.SetPerm(path, perm); return err })
	return err
}

func (h *hookFS) Fsync(fd fsapi.FD) error {
	var err error
	h.around("Fsync", func() error { err = h.fs.Fsync(fd); return err })
	return err
}

func (h *hookFS) Sync() error {
	var err error
	h.around("Sync", func() error { err = h.fs.Sync(); return err })
	return err
}

// hookBatchFS is hookFS over a backend that implements fswire.BatchWriter,
// so wrapping keeps the server on the batch path.
type hookBatchFS struct {
	*hookFS
	bw fswire.BatchWriter
}

func (h *hookBatchFS) WriteAtBatch(fd fsapi.FD, entries []fswire.BatchEntry) []fswire.BatchWriteResult {
	var res []fswire.BatchWriteResult
	h.around("WriteAtBatch", func() error { res = h.bw.WriteAtBatch(fd, entries); return nil })
	return res
}

// hook wraps fs with around, exposing fswire.BatchWriter exactly when fs
// does: the server type-asserts it, and a wrapper that added or hid it would
// send the server down a different path than the unwrapped backend takes.
func hook(fs fsapi.FS, around func(method string, call func() error)) fsapi.FS {
	h := &hookFS{fs: fs, around: around}
	if bw, ok := fs.(fswire.BatchWriter); ok {
		return &hookBatchFS{hookFS: h, bw: bw}
	}
	return h
}

// opQueue attributes a served volume's backend calls to the client ops that
// caused them. A connection's requests execute in submission order; each op
// costs one primary backend call, and a successful create, open or mkdir is
// followed by one lookup (Fstat, Stat) for the result's inode. So a FIFO of
// the submitted ops' span ids is enough to match them.
type opQueue struct {
	mu     sync.Mutex
	ids    []int64
	ops    []int64
	cur    int64 // span id of the op whose calls are running
	curOp  int64
	follow string // method of the expected follow-up lookup, "" if none
}

func (q *opQueue) push(id, op int64) {
	q.mu.Lock()
	q.ids = append(q.ids, id)
	q.ops = append(q.ops, op)
	q.mu.Unlock()
}

// begin returns the span id and op index the next backend call belongs to.
func (q *opQueue) begin(method string) (int64, int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.follow != "" && method == q.follow {
		q.follow = ""
		return q.cur, q.curOp
	}
	q.follow = ""
	if len(q.ids) == 0 { // e.g. closing leftover FIDs at hangup
		q.cur, q.curOp = 0, -1
		return 0, -1
	}
	q.cur, q.curOp = q.ids[0], q.ops[0]
	q.ids, q.ops = q.ids[1:], q.ops[1:]
	return q.cur, q.curOp
}

// end notes a follow-up lookup the server makes after a successful call.
func (q *opQueue) end(method string, err error) {
	if err != nil {
		return
	}
	q.mu.Lock()
	switch method {
	case "Create", "Open":
		q.follow = "Fstat"
	case "Mkdir":
		q.follow = "Stat"
	}
	q.mu.Unlock()
}

// tracedBackend wraps a served volume so each backend call is a
// "volmgr.backend" span, parented to the matched client op's span.
func tracedBackend(fs fsapi.FS, t *tracer, q *opQueue) fsapi.FS {
	return hook(fs, func(method string, call func() error) {
		parent, op := q.begin(method)
		s := t.now()
		err := call()
		e := t.now()
		q.end(method, err)
		t.add(span{name: "volmgr.backend", id: t.newID(), parent: parent, op: op, start: s, end: e})
	})
}

// tracedDevice wraps a Mem device so each transfer is a blockdev span,
// parented to the core call in flight (cur). It implements the same optional
// interfaces as Mem, so the filesystem takes the same IO paths.
type tracedDevice struct {
	dev *blockdev.Mem
	t   *tracer
	cur *atomic.Int64 // span id of the core call in flight, 0 if none
	op  *atomic.Int64 // op index in flight, -1 if none
}

func (d *tracedDevice) record(name string, s int64) {
	d.t.add(span{name: name, id: d.t.newID(), parent: d.cur.Load(), op: d.op.Load(), start: s, end: d.t.now()})
}

func (d *tracedDevice) ReadBlock(blk uint32) ([]byte, error) {
	s := d.t.now()
	b, err := d.dev.ReadBlock(blk)
	d.record("blockdev.read", s)
	return b, err
}

func (d *tracedDevice) WriteBlock(blk uint32, data []byte) error {
	s := d.t.now()
	err := d.dev.WriteBlock(blk, data)
	d.record("blockdev.write", s)
	return err
}

func (d *tracedDevice) ReadVec(runs []blockdev.Run) error {
	s := d.t.now()
	err := d.dev.ReadVec(runs)
	d.record("blockdev.read", s)
	return err
}

func (d *tracedDevice) WriteVec(runs []blockdev.Run) error {
	s := d.t.now()
	err := d.dev.WriteVec(runs)
	d.record("blockdev.write", s)
	return err
}

func (d *tracedDevice) Flush() error {
	s := d.t.now()
	err := d.dev.Flush()
	d.record("blockdev.flush", s)
	return err
}

func (d *tracedDevice) NumBlocks() uint32               { return d.dev.NumBlocks() }
func (d *tracedDevice) SnapshotDevice() blockdev.Device { return d.dev.SnapshotDevice() }
