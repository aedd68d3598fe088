package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"clobbernvm/internal/nvm"
)

// layerUnits is every per-layer metric a traced run reports, in print
// order. A layer a workload does not exercise reports 0.
var layerUnits = []struct{ name, unit string }{
	{"server.self_us_p50", "us"}, {"server.self_us_p99", "us"},
	{"cache.self_us_p50", "us"}, {"cache.self_us_p99", "us"},
	{"cache.busy_frac", "ratio"}, {"cache.hit_ratio", "ratio"}, {"cache.evictions_per_set", "ratio"},
	{"clobber.run_us_p50", "us"}, {"clobber.run_us_p99", "us"}, {"clobber.self_us_p50", "us"},
	{"clobber.runro_us_p50", "us"},
	{"clobber.log_entries_per_tx", "count"}, {"clobber.log_bytes_per_tx", "B"}, {"clobber.vlog_bytes_per_tx", "B"},
	{"pds.body_us_p50", "us"}, {"pds.insert_us_p50", "us"},
	{"pmem.allocs_per_op", "count"}, {"pmem.frees_per_op", "count"}, {"pmem.bytes_per_op", "B"}, {"pmem.refills_per_op", "count"},
	{"nvm.fences_per_op", "count"}, {"nvm.flushes_per_op", "count"}, {"nvm.stores_per_op", "count"},
	{"nvm.write_amp", "ratio"}, {"nvm.model_ns_per_op", "ns"},
	{"recovery.drain_snapshot_ms", "ms"}, {"recovery.image_ms", "ms"}, {"recovery.pmem_attach_ms", "ms"},
	{"recovery.engine_attach_ms", "ms"}, {"recovery.reopen_ms", "ms"}, {"recovery.recover_ms", "ms"},
	{"recovery.resume_ms", "ms"}, {"recovery.reexecuted_per_crash", "count"}, {"recovery.rolled_back_per_crash", "count"},
	{"go.gc_pause_ms", "ms"}, {"go.gc_cycles", "count"}, {"go.heap_peak_mb", "MiB"},
	{"gen.late_p50_us", "us"}, {"gen.late_p99_us", "us"}, {"gen.sat_idle_frac", "ratio"},
	{"trace.e2e_p50_us", "us"}, {"trace.accounted_frac", "ratio"},
}

// poolSnap is the part of the pool counters the layer metrics use.
type poolSnap struct {
	fences, flushes, stores, bytesStored int64
}

func snapPool(p *nvm.Pool) poolSnap {
	s := p.Stats()
	return poolSnap{fences: s.Fences, flushes: s.Flushes, stores: s.Stores, bytesStored: s.BytesStored}
}

func (a poolSnap) sub(b poolSnap) poolSnap {
	return poolSnap{a.fences - b.fences, a.flushes - b.flushes, a.stores - b.stores, a.bytesStored - b.bytesStored}
}

func (a poolSnap) add(b poolSnap) poolSnap {
	return poolSnap{a.fences + b.fences, a.flushes + b.flushes, a.stores + b.stores, a.bytesStored + b.bytesStored}
}

// layers computes the per-layer metrics of a traced run into its report.
type layers struct{ r *report }

func newLayers(r *report) *layers { return &layers{r: r} }

// close prints every metric the workload did not reach as 0, so each traced
// run reports the full per-layer list.
func (l *layers) close() {
	for _, m := range layerUnits {
		if _, ok := l.r.metrics[m.name]; !ok {
			l.r.metric(m.name, 0, m.unit, 0)
		}
	}
}

func (l *layers) set(name string, v float64, n int) {
	for _, m := range layerUnits {
		if m.name == name {
			l.r.metric(name, v, m.unit, n)
			return
		}
	}
	panic("perfbench: unlisted layer metric " + name)
}

func (l *layers) pct(name string, s *samples, p float64) float64 {
	v, _ := s.pct(p)
	l.set(name, usOf(v), s.n())
	return usOf(v)
}

// counters reports the pmem, nvm and engine counter deltas per op.
func (l *layers) counters(d counters, ops, txs int, userBytes float64, lat nvm.Latency) {
	if ops <= 0 {
		return
	}
	per := func(x int64) float64 { return float64(x) / float64(ops) }
	l.set("pmem.allocs_per_op", per(d.allocs), ops)
	l.set("pmem.frees_per_op", per(d.frees), ops)
	l.set("pmem.bytes_per_op", per(d.bytes), ops)
	l.set("pmem.refills_per_op", per(d.refills), ops)
	l.set("nvm.fences_per_op", per(d.pool.fences), ops)
	l.set("nvm.flushes_per_op", per(d.pool.flushes), ops)
	l.set("nvm.stores_per_op", per(d.pool.stores), ops)
	if userBytes > 0 {
		l.set("nvm.write_amp", float64(d.pool.bytesStored)/userBytes, ops)
	}
	// A model figure, not a measurement: counts times the cost model.
	l.set("nvm.model_ns_per_op", (float64(d.pool.fences)*float64(lat.FenceNS)+float64(d.pool.flushes)*float64(lat.FlushNS))/float64(ops), ops)
	if txs > 0 {
		pt := func(x int64) float64 { return float64(x) / float64(txs) }
		l.set("clobber.log_entries_per_tx", pt(d.engEntries), txs)
		l.set("clobber.log_bytes_per_tx", pt(d.engBytes), txs)
		l.set("clobber.vlog_bytes_per_tx", pt(d.vlogByte), txs)
	}
}

// gcSnap is the Go runtime's GC state at one instant.
type gcSnap struct {
	pauseNS uint64
	cycles  uint32
}

func readGC() gcSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnap{pauseNS: ms.PauseTotalNs, cycles: ms.NumGC}
}

// heapSampler tracks the peak live heap while it runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// runtime reports GC activity between two snapshots and the peak heap.
func (l *layers) runtime(a, b gcSnap, heapPeakMiB float64) {
	l.set("go.gc_pause_ms", float64(b.pauseNS-a.pauseNS)/1e6, int(b.cycles-a.cycles))
	l.set("go.gc_cycles", float64(b.cycles-a.cycles), 1)
	l.set("go.heap_peak_mb", heapPeakMiB, 1)
}

// spanStats are the per-layer samples derived from the spans of requests.
type spanStats struct {
	insert, insertSelf  samples
	cacheSelf           samples
	run, runSelf, runRO samples
	body                samples
	server              samples
	busyStart, busyEnd  []int64
}

// collect groups spans by request id (a request's spans are contiguous in
// its slot's buffer, innermost first) and derives self times. keep filters
// the requests to count; client, when non-nil, gives the client-observed
// latency of a request by its backend span id.
func collect(rec *recorder, keep func(id uint64) bool, client func(id uint64) (int64, bool)) *spanStats {
	st := &spanStats{}
	for slot := range rec.slots {
		sp := rec.spansOf(slot)
		for i := 0; i < len(sp); {
			j := i + 1
			for j < len(sp) && sp[j].id == sp[i].id {
				j++
			}
			if id := sp[i].id; id != 0 && keep(id) {
				st.request(sp[i:j], client)
			}
			i = j
		}
	}
	return st
}

func (st *spanStats) request(g []span, client func(id uint64) (int64, bool)) {
	childTime := func(k spanKind) int64 {
		var t int64
		for _, c := range g {
			if c.parent == k {
				t += c.dur()
			}
		}
		return t
	}
	for _, s := range g {
		switch s.kind {
		case kInsert:
			st.insert.add(s.dur())
			st.insertSelf.add(s.dur() - childTime(kInsert))
		case kBackend:
			st.cacheSelf.add(s.dur() - childTime(kBackend))
			st.busyStart = append(st.busyStart, s.start)
			st.busyEnd = append(st.busyEnd, s.end)
			if client != nil {
				if c, ok := client(s.id); ok && c != missed {
					st.server.add(c - s.dur())
				}
			}
		case kRun:
			st.run.add(s.dur())
			st.runSelf.add(s.dur() - childTime(kRun))
		case kRunRO:
			st.runRO.add(s.dur())
		case kBody:
			st.body.add(s.dur())
		}
	}
}

// busyFrac is the fraction of [from, to) covered by at least one backend
// span: how busy the cache layer kept the serving path.
func (st *spanStats) busyFrac(from, to int64) float64 {
	if to <= from || len(st.busyStart) == 0 {
		return 0
	}
	idx := make([]int, len(st.busyStart))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return st.busyStart[idx[a]] < st.busyStart[idx[b]] })
	var covered, curS, curE int64
	curS, curE = -1, -1
	for _, i := range idx {
		s, e := max(st.busyStart[i], from), min(st.busyEnd[i], to)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return float64(covered) / float64(to-from)
}

// accounted reports how much of the end-to-end median the layers' self-time
// medians add up to. By construction the self times of one request sum to
// its latency exactly; the medians of the parts need not, and the check, a
// correctness check of the traced run, is that they stay within
// accountedTolerance of the whole.
func (l *layers) accounted(e2eP50 float64, parts ...*samples) {
	var sum float64
	n := 0
	for _, p := range parts {
		v, _ := p.pct(0.5)
		sum += usOf(v)
		n += p.n()
	}
	l.accountedSum(sum, e2eP50, n)
}

// accountedSum reports sum, the layers' self-time medians added up, as a
// share of the end-to-end median, and fails the traced run when that share
// is not within tolerance: the spans would then miss or double-count part
// of the requests' time.
func (l *layers) accountedSum(sum, e2eP50 float64, n int) {
	if e2eP50 <= 0 {
		l.r.violate("trace accounting: no end-to-end median to account for")
		return
	}
	f := sum / e2eP50
	l.set("trace.accounted_frac", f, n)
	if math.Abs(f-1) > accountedTolerance {
		l.r.violate("trace accounting: the layers' self-time medians sum to %.3f of the end-to-end median, outside %.2f..%.2f",
			f, 1-accountedTolerance, 1+accountedTolerance)
	}
}

// accountedTolerance is how far the layers' self-time medians may sum from
// the end-to-end median.
const accountedTolerance = 0.25
