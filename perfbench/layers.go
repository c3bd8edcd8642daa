package main

import (
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disklayout"
	"repro/internal/oplog"
	"repro/internal/telemetry"
)

// layerSnap holds the counters the program exports, read at one instant.
type layerSnap struct {
	tel   telemetry.Snapshot
	dev   blockdev.StatsSnapshot
	stats []core.Stats
}

// snapLocal reads one supervisor's sink, stats and device counters.
func snapLocal(sys *localSys) layerSnap {
	return layerSnap{tel: sys.sink.Snapshot(), dev: sys.mem.Stats().Snapshot(), stats: []core.Stats{sys.fs.Stats()}}
}

// layerCounts is what the program's counters moved by over measured phases.
type layerCounts struct {
	counters map[string]int64
	hists    map[string]telemetry.HistSnapshot // Count and Sum only
	dev      blockdev.StatsSnapshot

	recoveries, appFailures, fsckFull, fsckScoped, replayed, reused int64
	phases                                                          []core.RecoveryPhases
	peakLog                                                         int

	ops, writeOps, userBytes int64
}

// layerDelta returns the movement from a to b. Every core.FS in a and b is
// the same instance in the same position.
func layerDelta(a, b layerSnap) layerCounts {
	d := layerCounts{counters: map[string]int64{}, hists: map[string]telemetry.HistSnapshot{}}
	for k, v := range b.tel.Counters {
		d.counters[k] = v - a.tel.Counters[k]
	}
	for k, h := range b.tel.Histograms {
		p := a.tel.Histograms[k]
		d.hists[k] = telemetry.HistSnapshot{Count: h.Count - p.Count, Sum: h.Sum - p.Sum}
	}
	d.dev = blockdev.StatsSnapshot{
		Reads: b.dev.Reads - a.dev.Reads, Writes: b.dev.Writes - a.dev.Writes, Flushes: b.dev.Flushes - a.dev.Flushes,
	}
	for i, sb := range b.stats {
		sa := a.stats[i]
		d.recoveries += sb.Recoveries - sa.Recoveries
		d.appFailures += sb.AppFailures - sa.AppFailures
		d.fsckFull += sb.FsckFull - sa.FsckFull
		d.fsckScoped += sb.FsckScoped - sa.FsckScoped
		d.replayed += sb.OpsReplayed - sa.OpsReplayed
		d.reused += sb.OpsReused - sa.OpsReused
		d.phases = append(d.phases, sb.Phases[len(sa.Phases):]...)
		d.peakLog = max(d.peakLog, sb.PeakLogLen)
	}
	return d
}

// addSums adds the counts and sums of two histogram snapshots.
func addSums(a, b telemetry.HistSnapshot) telemetry.HistSnapshot {
	return telemetry.HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
}

// add accumulates one phase's counters and the ops it ran.
func (c *layerCounts) add(d layerCounts, ops []*oplog.Op) {
	if c.counters == nil {
		c.counters = map[string]int64{}
		c.hists = map[string]telemetry.HistSnapshot{}
	}
	for k, v := range d.counters {
		c.counters[k] += v
	}
	for k, h := range d.hists {
		c.hists[k] = addSums(c.hists[k], h)
	}
	c.dev.Reads += d.dev.Reads
	c.dev.Writes += d.dev.Writes
	c.dev.Flushes += d.dev.Flushes
	c.recoveries += d.recoveries
	c.appFailures += d.appFailures
	c.fsckFull += d.fsckFull
	c.fsckScoped += d.fsckScoped
	c.replayed += d.replayed
	c.reused += d.reused
	c.phases = append(c.phases, d.phases...)
	c.peakLog = max(c.peakLog, d.peakLog)
	for _, o := range ops {
		c.ops++
		if o.Kind == oplog.KWrite {
			c.writeOps++
			c.userBytes += int64(len(o.Data))
		}
	}
}

// perLayer derives every per-layer metric. Layers a workload does not reach
// read 0: there is no wire on a local workload and no recovery on a healthy
// one. Time inside core and the device is traced only where the benchmark
// can wrap them, i.e. on the local workloads.
func perLayer(c layerCounts, trs []*tracer, overhead float64) map[string]float64 {
	totals := func(name string) layerTime {
		var sum layerTime
		for _, tr := range trs {
			lt := tr.totals(name)
			sum.count += lt.count
			sum.total += lt.total
			sum.self += lt.self
		}
		return sum
	}
	ops := float64(max(c.ops, 1))
	perOpUs := func(ns int64) float64 { return float64(ns) / ops / 1e3 }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	hitRatio := func(cache string) float64 {
		h, m := c.counters["cache."+cache+".hits"], c.counters["cache."+cache+".misses"]
		return ratio(h, h+m)
	}
	histSum := func(name string) int64 { return int64(c.hists[name].Sum) }
	var basefsNs int64
	for k, h := range c.hists {
		if strings.HasPrefix(k, "basefs.op.") {
			basefsNs += int64(h.Sum)
		}
	}
	client := totals("fswire.client")
	busy := totals("blockdev.read").total + totals("blockdev.write").total + totals("blockdev.flush").total
	phaseMean := func(f func(core.RecoveryPhases) time.Duration) float64 {
		if len(c.phases) == 0 {
			return 0
		}
		var sum time.Duration
		for _, p := range c.phases {
			sum += f(p)
		}
		return float64(sum) / float64(len(c.phases)) / 1e6
	}
	commits, jblocks := c.counters["journal.commits"], c.counters["journal.committed_blocks"]
	bytesOut := func(blocks int64) float64 { return ratio(blocks*disklayout.BlockSize, c.userBytes) }
	return map[string]float64{
		"fswire.client_us":          perOpUs(client.total),
		"fswire.self_us":            perOpUs(client.self),
		"fswire.frames_per_op":      float64(c.counters["fswire.ops"]) / ops,
		"fswire.bytes_per_op":       float64(c.counters["fswire.bytes"]) / ops,
		"fswire.batched_write_frac": ratio(c.counters["fswire.batch.writes"], c.writeOps),
		"fswire.errs":               float64(c.counters["fswire.errs"]),
		"volmgr.backend_us":         perOpUs(totals("volmgr.backend").total),
		"volmgr.qos_shed":           float64(c.counters["volmgr.qos.shed"]),
		"volmgr.qos_throttle_us":    perOpUs(histSum("volmgr.qos.throttle_ns")),
		"cache.buffer.hit_ratio":    hitRatio("buffer"),
		"cache.inode.hit_ratio":     hitRatio("inode"),
		"cache.dentry.hit_ratio":    hitRatio("dentry"),
		"cache.shard.lock_wait_us":  perOpUs(histSum("cache.shard.lock_wait")),
		"blockdev.reads_per_op":     float64(c.dev.Reads) / ops,
		"blockdev.writes_per_op":    float64(c.dev.Writes) / ops,
		"blockdev.flushes_per_op":   float64(c.dev.Flushes) / ops,
		"blockdev.busy_us":          perOpUs(busy),
		"blockdev.write_amp":        bytesOut(c.dev.Writes),
		"core.self_us":              perOpUs(totals("core").self),
		"core.fence_wait_us":        perOpUs(histSum("core.fence.wait_ns")),
		"core.recovery_wall_ms":     phaseMean(func(p core.RecoveryPhases) time.Duration { return p.Wall }),
		"core.recoveries":           float64(c.recoveries),
		"core.app_failures":         float64(c.appFailures),
		"oplog.append_us":           float64(histSum("oplog.append_ns")) / float64(max(c.hists["oplog.append_ns"].Count, 1)) / 1e3,
		"oplog.appends_per_op":      float64(c.counters["oplog.appends"]) / ops,
		"oplog.peak_len":            float64(c.peakLog),
		"basefs.op_us":              perOpUs(basefsNs),
		"basefs.reboot_ms":          phaseMean(func(p core.RecoveryPhases) time.Duration { return p.Reboot }),
		"journal.commits_per_kop":   float64(commits) / ops * 1000,
		"journal.blocks_per_commit": ratio(jblocks, commits),
		"journal.commit_us":         float64(histSum("journal.commit.latency")) / float64(max(c.hists["journal.commit.latency"].Count, 1)) / 1e3,
		"journal.write_amp":         bytesOut(jblocks),
		"fsck.check_ms":             phaseMean(func(p core.RecoveryPhases) time.Duration { return p.Fsck }),
		"fsck.scoped_frac":          ratio(c.fsckScoped, c.fsckScoped+c.fsckFull),
		"shadowfs.replay_ms":        phaseMean(func(p core.RecoveryPhases) time.Duration { return p.Replay }),
		"shadowfs.reuse_frac":       ratio(c.reused, c.reused+c.replayed),
		"handoff.absorb_ms":         phaseMean(func(p core.RecoveryPhases) time.Duration { return p.Absorb }),
		"trace.overhead_frac":       overhead,
	}
}
