package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/fswire"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/oplog"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{100, 0.90, true, 90},
		{99, 0.90, false, 0},
		{20, 0.50, true, 10},
		{19, 0.50, false, 0},
		{0, 0.50, false, 0},
	}
	for _, c := range cases {
		got, ok := quantile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("quantile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "core", id: 1, start: 0, end: 100},
		// Two overlapping children cover [10, 70]; the third pokes out of
		// the parent and only [90, 100] of it counts.
		{name: "blockdev.write", id: 2, parent: 1, start: 10, end: 50},
		{name: "core.recovery", id: 3, parent: 1, start: 30, end: 70},
		{name: "blockdev.write", id: 4, parent: 1, start: 90, end: 120},
	}
	got := foldSpans(spans)
	if c := got["core"]; c.total != 100 || c.self != 30 {
		t.Errorf("core = %+v, want total 100, self 30", c)
	}
	if w := got["blockdev.write"]; w.count != 2 || w.total != 70 || w.self != 70 {
		t.Errorf("blockdev.write = %+v, want count 2, total 70, self 70", w)
	}
}

// flipFS corrupts one answer of the filesystem it wraps: the errno of the
// stat of statPath, or the first byte read by the readAt-th read.
type flipFS struct {
	fsapi.FS
	statPath string
	readAt   int
	reads    int
}

func (f *flipFS) Stat(path string) (fsapi.Stat, error) {
	if path == f.statPath {
		return fsapi.Stat{}, fserr.ErrNotExist
	}
	return f.FS.Stat(path)
}

func (f *flipFS) ReadAt(fd fsapi.FD, off int64, n int) ([]byte, error) {
	b, err := f.FS.ReadAt(fd, off, n)
	if f.reads++; f.reads == f.readAt && len(b) > 0 {
		b = append([]byte(nil), b...)
		b[0] ^= 1
	}
	return b, err
}

func TestCheckerCountsOneFlippedAnswer(t *testing.T) {
	sb, err := mkfs.Format(blockdev.NewMem(1024), mkfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := model.New(sb)
	var steps []step
	emit := func(o *oplog.Op) *oplog.Op {
		_ = oplog.Apply(oracle, o)
		steps = append(steps, newStep(o))
		return o
	}
	emit(&oplog.Op{Kind: oplog.KMkdir, Path: "/d", Perm: 0o755})
	fd := emit(&oplog.Op{Kind: oplog.KCreate, Path: "/d/f", Perm: 0o644}).RetFD
	emit(&oplog.Op{Kind: oplog.KWrite, FD: fd, Data: []byte("hello, oracle")})
	emit(&oplog.Op{Kind: oplog.KStatProbe, Path: "/d/f"})
	emit(&oplog.Op{Kind: oplog.KReadProbe, FD: fd, Size: 5})
	emit(&oplog.Op{Kind: oplog.KReadProbe, FD: fd, Off: 7, Size: 6})
	emit(&oplog.Op{Kind: oplog.KClose, FD: fd})

	run := func(fs fsapi.FS) checker {
		var c checker
		for i, s := range steps {
			got := s.fresh()
			_ = oplog.Apply(fs, got)
			c.op("test", i, s, got)
		}
		return c
	}
	if c := run(model.New(sb)); c.failed != 0 {
		t.Fatalf("faithful run: failed %d (%s)", c.failed, c.first)
	}
	for _, tc := range []struct {
		name  string
		fs    fsapi.FS
		first string
	}{
		{"errno", &flipFS{FS: model.New(sb), statPath: "/d/f"}, "test op 3 stat /d/f: errno"},
		{"read byte", &flipFS{FS: model.New(sb), readAt: 2}, "test op 5 read fd=0: read bytes differ"},
	} {
		c := run(tc.fs)
		if c.attempted != len(steps) || c.failed != 1 || !strings.HasPrefix(c.first, tc.first) {
			t.Errorf("%s flip: attempted %d, failed %d, first %q; want %d, 1, prefix %q",
				tc.name, c.attempted, c.failed, c.first, len(steps), tc.first)
		}
		r := &result{chk: c, ops: 1, measured: 1, setups: nil}
		if _, extra, _, _ := endToEnd(r); extra["fail_frac"].Value != 1/float64(len(steps)) {
			t.Errorf("%s flip: fail_frac %v, want %v", tc.name, extra["fail_frac"].Value, 1/float64(len(steps)))
		}
	}
}

func TestHookKeepsBatchWriterExactlyWhenInnerHasIt(t *testing.T) {
	sb, err := mkfs.Format(blockdev.NewMem(1024), mkfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nop := func(string, func() error) {}
	if _, ok := hook(fswire.Locked(model.New(sb)), nop).(fswire.BatchWriter); !ok {
		t.Error("wrapping a BatchWriter hid the capability")
	}
	if _, ok := hook(model.New(sb), nop).(fswire.BatchWriter); ok {
		t.Error("wrapping a plain filesystem added BatchWriter")
	}
}

var tinySizes = roundSizes{meta: 400, storm: 400, served: 300}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks the outcome contract each one promises.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(name, 1, 0, traced, tinySizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.chk.attempted != res.ops || res.ops == 0 {
				t.Errorf("%s: attempted %d of %d ops", name, res.chk.attempted, res.ops)
			}
			if res.chk.failed != 0 {
				t.Errorf("%s: failed %d, first %s", name, res.chk.failed, res.chk.first)
			}
			if len(res.setups) != extraSetups+1 {
				t.Errorf("%s: %d set-ups, want %d", name, len(res.setups), extraSetups+1)
			}
			if name == "storm-local" && (res.layers.recoveries == 0 || len(res.stalls) == 0 || res.layers.appFailures != 0) {
				t.Errorf("storm: recoveries %d, stalls %d, app failures %d", res.layers.recoveries, len(res.stalls), res.layers.appFailures)
			}
			if name != "storm-local" && res.layers.recoveries != 0 {
				t.Errorf("%s: %d recoveries on a healthy workload", name, res.layers.recoveries)
			}
			if !traced {
				continue
			}
			m := layerMetrics(res, 0)
			for _, want := range []string{"core.recoveries", "fswire.self_us", "handoff.absorb_ms", "trace.overhead_frac"} {
				if _, ok := m[want]; !ok {
					t.Errorf("%s: per-layer metric %s missing", name, want)
				}
			}
			root := map[string]string{"read-served": "fswire.client"}[name]
			if root == "" {
				root = "core"
			}
			if res.tracers[0].totals(root).count == 0 {
				t.Errorf("%s: no %s spans", name, root)
			}
			for _, tr := range res.tracers {
				for _, s := range tr.kept {
					if s.name == "volmgr.backend" && s.parent == 0 {
						t.Fatalf("%s: backend span %+v not matched to a client op", name, s)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program prints in step: same names, same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names, listed []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if _, ok := unlisted[w]; !ok {
			listed = append(listed, w)
		}
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("workloads %v, program lists %v", names, listed)
	}
	r := &result{ops: 1000, measured: time.Second, rates: []float64{1000}, cpuPerOp: []float64{1}, setups: []time.Duration{time.Second}, heapMB: []float64{1}}
	for i := 0; i < 1000; i++ {
		r.reads = append(r.reads, time.Duration(i))
		r.writes = append(r.writes, time.Duration(i))
	}
	gated, _, _, err := endToEnd(r)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []struct{ Name, Unit string }, got map[string]metric) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(want), len(got))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, program prints %+v (present %v)", kind, m.Name, m.Unit, g, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, gated)
	check("per_layer", spec.PerLayer, layerMetrics(&result{}, 0))
}
