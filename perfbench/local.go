package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/disklayout"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Local workloads drive one supervised core.FS in-process with one client.
const (
	localBlocks = 16384 // 64 MiB Mem image
	syncEvery   = 100   // a Sync after every 100 mutating ops
)

// localSpec shapes one local round.
type localSpec struct {
	ops   int  // trace length per round
	storm bool // arm the recurring mkdir crash specimen
}

// stormSpecimen is the recurring crash the served-fleet storms use: a
// deterministic panic on entry to every mkdir of a "box" path, which the
// MetaHeavy profile creates steadily.
func stormSpecimen() *faultinject.Specimen {
	return &faultinject.Specimen{
		ID: "bench-storm", Class: faultinject.Crash,
		Deterministic: true, Op: "mkdir", Point: "entry", PathSubstr: "box",
	}
}

// localSys is one freshly formatted image under a supervisor.
type localSys struct {
	mem  *blockdev.Mem
	sb   *disklayout.Superblock
	sink *telemetry.Sink
	fs   *core.FS
}

// setupLocal formats a fresh image and mounts the supervisor on it, through
// wrap when set, and records how long that took.
func setupLocal(spec localSpec, seed int64, wrap func(*blockdev.Mem) blockdev.Device, res *result) (*localSys, error) {
	t0 := time.Now()
	sys := &localSys{mem: blockdev.NewMem(localBlocks), sink: telemetry.New()}
	var err error
	if sys.sb, err = mkfs.Format(sys.mem, mkfs.Options{}); err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	cfg := core.Config{Telemetry: sys.sink}
	if spec.storm {
		reg := faultinject.NewRegistry(seed)
		reg.Arm(stormSpecimen())
		cfg.Base.Injector = reg
	}
	var dev blockdev.Device = sys.mem
	if wrap != nil {
		dev = wrap(sys.mem)
	}
	if sys.fs, err = core.Mount(dev, cfg); err != nil {
		return nil, fmt.Errorf("mount: %w", err)
	}
	res.setups = append(res.setups, time.Since(t0))
	return sys, nil
}

// localRound sets up a fresh image and supervisor, drives one MetaHeavy trace
// through it closed-loop and checks every outcome and the final state against
// the model. With tr set, calls into core and the device are traced.
func localRound(spec localSpec, seed int64, base int, tr *tracer, res *result) error {
	var cur, inflight atomic.Int64
	inflight.Store(-1)
	var wrap func(*blockdev.Mem) blockdev.Device
	if tr != nil {
		wrap = func(mem *blockdev.Mem) blockdev.Device {
			return &tracedDevice{dev: mem, t: tr, cur: &cur, op: &inflight}
		}
	}
	sys, err := setupLocal(spec, seed, wrap, res)
	if err != nil {
		return err
	}
	fs := sys.fs

	trace := workload.Generate(workload.Config{
		Profile: workload.MetaHeavy, Seed: seed, NumOps: spec.ops, Superblock: sys.sb, SyncEvery: syncEvery,
	})
	want, err := modelState(sys.sb, trace)
	if err != nil {
		_ = fs.Unmount() // the oracle's error is the one to report
		return err
	}
	steps := make([]step, len(trace))
	ops := make([]*oplog.Op, len(trace))
	for i, o := range trace {
		steps[i] = newStep(o)
		ops[i] = steps[i].fresh()
	}

	var target fsapi.FS = fs
	if tr != nil {
		target = tracedCore(fs, sys.sink, tr, &cur, &inflight)
	}
	before := snapLocal(sys)
	phase := startPhase()
	lastRec := fs.Stats().Recoveries
	for i, op := range ops {
		inflight.Store(int64(base + i))
		t := time.Now()
		_ = oplog.Apply(target, op) // the outcome is in op
		d := time.Since(t)
		if st := fs.Stats(); st.Recoveries != lastRec {
			var wall time.Duration
			for _, p := range st.Phases[lastRec:st.Recoveries] {
				wall += p.Wall
			}
			res.stalls = append(res.stalls, d)
			res.stallOutside = append(res.stallOutside, d-wall)
			lastRec = st.Recoveries
		}
		res.observe(op.Kind, d)
	}
	inflight.Store(-1)
	phase.stop(res, len(ops))
	if tr != nil {
		tr.fold()
	}
	res.layers.add(layerDelta(before, snapLocal(sys)), ops)
	for i, op := range ops {
		res.chk.op("image", base+i, steps[i], op)
	}
	// The trace is dead from here, so the heap is the filesystem's.
	res.heapMB = append(res.heapMB, res.liveHeapMB())
	res.chk.state("image", fs, want)
	return fs.Unmount()
}

// modelState replays trace on a fresh model, confirms the model reproduces
// every recorded outcome, and returns the model's final state dump.
func modelState(sb *disklayout.Superblock, trace []*oplog.Op) (map[string]difftest.Entry, error) {
	m := model.New(sb)
	for i, o := range trace {
		c := o.Clone()
		c.Errno, c.RetFD, c.RetIno, c.RetN, c.RetData = 0, 0, 0, 0, nil
		_ = oplog.Apply(m, c)
		if len(difftest.CompareOutcome(c, o)) > 0 {
			return nil, fmt.Errorf("oracle is not deterministic at op %d (%s)", i, o)
		}
	}
	return difftest.DumpState(m)
}

// tracedCore wraps the supervisor so each call is a "core" span, and each
// recovery that runs inside a call is a "core.recovery" child span placed by
// the recovery trace's own start time and length.
func tracedCore(fs *core.FS, sink *telemetry.Sink, tr *tracer, cur, inflight *atomic.Int64) fsapi.FS {
	lastRec := fs.Stats().Recoveries
	var lastTrace int64
	return hook(fs, func(_ string, call func() error) {
		id := tr.newID()
		cur.Store(id)
		s := tr.now()
		_ = call()
		e := tr.now()
		cur.Store(0)
		op := inflight.Load()
		tr.add(span{name: "core", id: id, op: op, start: s, end: e})
		if r := fs.Stats().Recoveries; r != lastRec {
			lastRec = r
			for _, rt := range sink.RecoveryTraces() {
				if rt.ID <= lastTrace {
					continue
				}
				lastTrace = rt.ID
				rs := int64(rt.Start.Sub(tr.epoch))
				tr.add(span{name: "core.recovery", id: tr.newID(), parent: id, op: op, start: rs, end: rs + int64(rt.Total)})
			}
		}
	})
}
