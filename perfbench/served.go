package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/difftest"
	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/fswire"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
	"repro/internal/volmgr"
)

// The served workload: a volmgr fleet behind fswire on loopback, one
// pipelined client per volume. The corpus is 8x the volume's default buffer
// cache (1024 blocks = 4 MiB), so Zipf-cold reads miss to the device.
const (
	servedVolumes   = 2
	servedBlocks    = 16384 // 64 MiB per volume
	corpusDirs      = 16
	corpusFiles     = 2048
	corpusFileBytes = 16 << 10
	servedWindow    = 16  // in-flight window of the client and of driveWindow
	servedBatch     = 8   // write-coalescing cap in ops
	overwriteBytes  = 256 // ReadMostly's update size
	syncEveryWrites = 32  // a Sync after every 32 overwrites
	// math/rand's Zipf needs s > 1. Web request streams measure below 1
	// (0.64-0.83 in Breslau et al., "Web Caching and Zipf-like
	// Distributions", INFOCOM 1999), so s is the first round value above
	// the generator's limit: near the measured skews, not fitted to them.
	zipfS = 1.1
)

// servedGen generates one volume's inputs while driving a private model, so
// every op carries the model's outcome.
type servedGen struct {
	rng    *rand.Rand
	m      *model.Model
	zipf   *rand.Zipf
	rank   []int // Zipf rank -> file index, so hot files spread over dirs
	files  []string
	dirs   []string
	writes int
}

func newServedGen(seed int64, sb *disklayout.Superblock) *servedGen {
	rng := rand.New(rand.NewSource(seed))
	return &servedGen{
		rng:  rng,
		m:    model.New(sb),
		zipf: rand.NewZipf(rng, zipfS, 1, corpusFiles-1),
		rank: rng.Perm(corpusFiles),
	}
}

func (g *servedGen) emit(out []step, o *oplog.Op) []step {
	_ = oplog.Apply(g.m, o) // the outcome is in o
	return append(out, newStep(o))
}

// corpus returns the ops that build and sync the corpus.
func (g *servedGen) corpus() []step {
	var out []step
	for d := 0; d < corpusDirs; d++ {
		dir := fmt.Sprintf("/d%d", d)
		g.dirs = append(g.dirs, dir)
		out = g.emit(out, &oplog.Op{Kind: oplog.KMkdir, Path: dir, Perm: 0o755})
	}
	for f := 0; f < corpusFiles; f++ {
		path := fmt.Sprintf("/d%d/f%d", f%corpusDirs, f)
		g.files = append(g.files, path)
		out = g.emit(out, &oplog.Op{Kind: oplog.KCreate, Path: path, Perm: 0o644})
		fd := out[len(out)-1].want.RetFD
		data := make([]byte, corpusFileBytes)
		g.rng.Read(data)
		out = g.emit(out, &oplog.Op{Kind: oplog.KWrite, FD: fd, Data: data})
		out = g.emit(out, &oplog.Op{Kind: oplog.KClose, FD: fd})
	}
	return g.emit(out, &oplog.Op{Kind: oplog.KSync})
}

// chunk returns at least n measured ops. The mix is workload.ReadMostly's
// webserver-like one, changed only where this workload needs it: files are
// picked Zipf-skewed from the corpus, reads are 4 KiB at a random block, and
// ReadMostly's update and create slots become one overwrite slot of ~8%.
// Weights out of 98: 55 stat, 25 open + read + close, 10 readdir, 8 open +
// 256-byte overwrite + close.
func (g *servedGen) chunk(n int) []step {
	out := make([]step, 0, n+4)
	for len(out) < n {
		path := g.files[g.rank[g.zipf.Uint64()]]
		switch r := g.rng.Intn(98); {
		case r < 55:
			out = g.emit(out, &oplog.Op{Kind: oplog.KStatProbe, Path: path})
		case r < 80:
			out = g.emit(out, &oplog.Op{Kind: oplog.KOpen, Path: path})
			fd := out[len(out)-1].want.RetFD
			blk := g.rng.Intn(corpusFileBytes / disklayout.BlockSize)
			out = g.emit(out, &oplog.Op{Kind: oplog.KReadProbe, FD: fd, Off: int64(blk * disklayout.BlockSize), Size: disklayout.BlockSize})
			out = g.emit(out, &oplog.Op{Kind: oplog.KClose, FD: fd})
		case r < 90:
			out = g.emit(out, &oplog.Op{Kind: oplog.KReadDirProbe, Path: g.dirs[g.rng.Intn(len(g.dirs))]})
		default:
			out = g.emit(out, &oplog.Op{Kind: oplog.KOpen, Path: path})
			fd := out[len(out)-1].want.RetFD
			data := make([]byte, overwriteBytes)
			g.rng.Read(data)
			off := g.rng.Int63n(corpusFileBytes - overwriteBytes)
			out = g.emit(out, &oplog.Op{Kind: oplog.KWrite, FD: fd, Off: off, Data: data})
			out = g.emit(out, &oplog.Op{Kind: oplog.KClose, FD: fd})
			if g.writes++; g.writes%syncEveryWrites == 0 {
				out = g.emit(out, &oplog.Op{Kind: oplog.KSync})
			}
		}
	}
	return out
}

// fleet is the served system under test.
type fleet struct {
	m         *volmgr.Manager
	vols      []*volmgr.Volume
	srv       *fswire.Server
	serveDone chan error
	clients   []*fswire.Client
}

// setupFleet creates the volumes, builds each corpus directly on its volume
// (checking each outcome against the model), starts the server and dials one
// pipelined client per volume. With tracers set, each volume's backend calls
// are traced and matched to client ops through queues.
func setupFleet(corpora [][]step, trs []*tracer, queues []*opQueue, res *result) (*fleet, error) {
	t0 := time.Now()
	m, err := volmgr.New(volmgr.Config{PoolBlocks: servedVolumes * servedBlocks})
	if err != nil {
		return nil, err
	}
	f := &fleet{m: m}
	for i := 0; i < servedVolumes; i++ {
		v, err := m.Create(volName(i), volmgr.VolumeConfig{Blocks: servedBlocks})
		if err != nil {
			f.close()
			return nil, err
		}
		f.vols = append(f.vols, v)
		for j, s := range corpora[i] {
			got := s.fresh()
			_ = oplog.Apply(v, got)
			var chk checker
			if chk.op(volName(i)+" corpus", j, s, got); chk.failed > 0 {
				f.close()
				return nil, fmt.Errorf("%s", chk.first)
			}
		}
		// Remount, so the measured phase starts on a fresh supervisor whose
		// op log (and its peak length) holds none of the corpus build.
		if err := m.Close(volName(i)); err != nil {
			f.close()
			return nil, err
		}
		if _, err := m.Open(volName(i)); err != nil {
			f.close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	backend := fswire.Volumes(m)
	if trs != nil {
		plain := backend
		backend = func(name string) (fsapi.FS, error) {
			fs, err := plain(name)
			if err != nil {
				return nil, err
			}
			for i := range f.vols {
				if name == volName(i) {
					return tracedBackend(fs, trs[i], queues[i]), nil
				}
			}
			return fs, nil
		}
	}
	f.srv = fswire.NewServer(backend, fswire.WithTelemetry(m.Telemetry()))
	f.serveDone = make(chan error, 1)
	go func() { f.serveDone <- f.srv.Serve(ln) }()
	for i := range f.vols {
		c, err := fswire.DialConfig(ln.Addr().String(), volName(i), fswire.ClientConfig{Window: servedWindow, BatchMaxOps: servedBatch})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("dial %s: %w", volName(i), err)
		}
		f.clients = append(f.clients, c)
	}
	res.setups = append(res.setups, time.Since(t0))
	return f, nil
}

func volName(i int) string { return fmt.Sprintf("vol%d", i) }

func (f *fleet) snap() layerSnap {
	s := layerSnap{tel: f.m.Telemetry().Snapshot()}
	for _, v := range f.vols {
		vs := v.Telemetry().Snapshot()
		for k, n := range vs.Counters {
			// A shed counts in the volume's sink and in the fleet's;
			// the fleet's already holds every volume's.
			if k != "volmgr.qos.shed" {
				s.tel.Counters[k] += n
			}
		}
		for k, h := range vs.Histograms {
			s.tel.Histograms[k] = addSums(s.tel.Histograms[k], h)
		}
		d := v.Device().Stats().Snapshot()
		s.dev.Reads += d.Reads
		s.dev.Writes += d.Writes
		s.dev.Flushes += d.Flushes
		s.stats = append(s.stats, v.Stats())
	}
	return s
}

func (f *fleet) close() {
	for _, c := range f.clients {
		_ = c.Hangup() // teardown; the connection's fate no longer matters
	}
	if f.srv != nil {
		_ = f.srv.Close()
		<-f.serveDone
	}
	_ = f.m.Shutdown()
}

// driveWindow runs ops closed-loop through c with at most window in flight:
// submit op i, then wait for op i-window. Each op is timed from its submit to
// the return of its wait. With tr set, each op is a "fswire.client" span and
// its id is queued so the backend can match its calls to it.
func driveWindow(c *fswire.Client, ops []*oplog.Op, base int, window int, tr *tracer, q *opQueue, res *result) {
	type inflight struct {
		wait interface{ Wait() }
		t0   int64
		id   int64
	}
	fl := make([]inflight, len(ops))
	epoch := time.Now()
	complete := func(j int) {
		fl[j].wait.Wait()
		end := int64(time.Since(epoch))
		res.observe(ops[j].Kind, time.Duration(end-fl[j].t0))
		if tr != nil {
			s := fl[j].t0 + int64(epoch.Sub(tr.epoch))
			tr.add(span{name: "fswire.client", id: fl[j].id, op: int64(base + j), start: s, end: s + end - fl[j].t0})
		}
	}
	for i, op := range ops {
		if tr != nil {
			fl[i].id = tr.newID()
			q.push(fl[i].id, int64(base+i))
		}
		fl[i].t0 = int64(time.Since(epoch))
		fl[i].wait = c.SubmitOp(op)
		if j := i - window; j >= 0 {
			complete(j)
		}
	}
	for j := max(0, len(ops)-window); j < len(ops); j++ {
		complete(j)
	}
}

// servedRun sets the fleet up, then drives measured chunks on both volumes
// concurrently until the measured time reaches d.
func servedRun(seed int64, d time.Duration, chunkOps int, traced bool, res *result) error {
	sb, err := mkfs.Format(blockdev.NewMem(servedBlocks), mkfs.Options{})
	if err != nil {
		return err
	}
	gens := make([]*servedGen, servedVolumes)
	corpora := make([][]step, servedVolumes)
	for i := range gens {
		gens[i] = newServedGen(seed+int64(i)*7919, sb)
		corpora[i] = gens[i].corpus()
	}
	var trs []*tracer
	var queues []*opQueue
	if traced {
		for i := 0; i < servedVolumes; i++ {
			trs = append(trs, newTracer())
			queues = append(queues, &opQueue{})
		}
		res.tracers = trs
	}
	for i := 0; i < extraSetups; i++ {
		f, err := setupFleet(corpora, nil, nil, res)
		if err != nil {
			return err
		}
		f.close()
	}
	f, err := setupFleet(corpora, trs, queues, res)
	if err != nil {
		return err
	}
	defer f.close()

	bases := make([]int, servedVolumes)
	for first := true; first || res.measured < d; first = false {
		chunks := make([][]step, servedVolumes)
		ops := make([][]*oplog.Op, servedVolumes)
		for i, g := range gens {
			chunks[i] = g.chunk(chunkOps)
			ops[i] = make([]*oplog.Op, len(chunks[i]))
			for j, s := range chunks[i] {
				ops[i][j] = s.fresh()
			}
		}
		before := f.snap()
		parts := make([]result, servedVolumes)
		var wg sync.WaitGroup
		phase := startPhase()
		for i := range f.clients {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var tr *tracer
				var q *opQueue
				if traced {
					tr, q = trs[i], queues[i]
				}
				driveWindow(f.clients[i], ops[i], bases[i], servedWindow, tr, q, &parts[i])
			}(i)
		}
		wg.Wait()
		n := 0
		for i := range ops {
			n += len(ops[i])
		}
		phase.stop(res, n)
		for _, tr := range trs {
			tr.fold()
		}
		var all []*oplog.Op
		for i := range ops {
			res.merge(&parts[i])
			all = append(all, ops[i]...)
		}
		res.layers.add(layerDelta(before, f.snap()), all)
		for i := range ops {
			for j, op := range ops[i] {
				res.chk.op(volName(i), bases[i]+j, chunks[i][j], op)
			}
			bases[i] += len(ops[i])
		}
	}
	wants := make([]map[string]difftest.Entry, len(gens))
	for i, g := range gens {
		if wants[i], err = difftest.DumpState(g.m); err != nil {
			return fmt.Errorf("model state: %w", err)
		}
	}
	// The models and inputs are dead from here, so the heap is the fleet's.
	res.heapMB = append(res.heapMB, res.liveHeapMB())
	for i, v := range f.vols {
		res.chk.state(volName(i), v, wants[i])
	}
	return nil
}
