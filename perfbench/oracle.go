package main

import (
	"fmt"
	"hash/crc32"

	"repro/internal/difftest"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/oplog"
)

// step is one operation of a generated trace with its oracle outcome. The
// model's read bytes are kept only as a checksum, so a long read-heavy trace
// does not hold every block it reads.
type step struct {
	want    *oplog.Op // outcome fields are the model's; RetData is nil
	wantSum uint32    // CRC32 of the model's read bytes (KReadProbe only)
}

// newStep records op, whose outcome the model has just filled.
func newStep(op *oplog.Op) step {
	s := step{want: op}
	if op.Kind == oplog.KReadProbe {
		s.wantSum = crc32.ChecksumIEEE(op.RetData)
		op.RetData = nil
	}
	return s
}

// fresh returns a copy of the step's op with the outcome cleared, ready to
// run against the system under test.
func (s step) fresh() *oplog.Op {
	op := *s.want
	op.Errno, op.RetFD, op.RetIno, op.RetN, op.RetData = 0, 0, 0, 0, nil
	return &op
}

// checker compares outcomes with the model oracle. It counts failures
// instead of aborting, so one divergence does not hide how many follow.
type checker struct {
	attempted int
	failed    int    // ops that diverged plus state paths that differ
	stateDiff int    // the state paths among failed
	first     string // first divergence, "" while none
}

// op checks one executed operation; idx is its position in where's stream.
func (c *checker) op(where string, idx int, s step, got *oplog.Op) {
	c.attempted++
	w := s.want
	var what string
	switch ds := difftest.CompareOutcome(got, w); {
	case got.Errno != 0 && fserr.IsFault(fserr.FromErrno(got.Errno)):
		what = fmt.Sprintf("fault-class errno %d", got.Errno)
	case len(ds) > 0:
		what = fmt.Sprintf("%s %s, oracle %s", ds[0].Field, ds[0].Got, ds[0].Want)
	case w.Kind == oplog.KReadProbe && crc32.ChecksumIEEE(got.RetData) != s.wantSum:
		what = "read bytes differ from oracle"
	default:
		return
	}
	c.failed++
	if c.first == "" {
		c.first = fmt.Sprintf("%s op %d %s %s: %s", where, idx, w.Kind, opTarget(w), what)
	}
}

// state compares a final state dump of fs with the model's dump and counts
// each differing path as one failure.
func (c *checker) state(label string, fs fsapi.FS, want map[string]difftest.Entry) {
	got, err := difftest.DumpState(fs)
	if err != nil {
		c.failed++
		if c.first == "" {
			c.first = fmt.Sprintf("%s state dump: %v", label, err)
		}
		return
	}
	ds := difftest.CompareStates(got, want)
	c.failed += len(ds)
	c.stateDiff += len(ds)
	if len(ds) > 0 && c.first == "" {
		c.first = fmt.Sprintf("%s final state: %s", label, ds[0])
	}
}

func opTarget(o *oplog.Op) string {
	switch o.Kind {
	case oplog.KClose, oplog.KWrite, oplog.KFsync, oplog.KReadProbe:
		return fmt.Sprintf("fd=%d", o.FD)
	case oplog.KSync:
		return "-"
	}
	return o.Path
}
