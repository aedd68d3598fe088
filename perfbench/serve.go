package main

import (
	"fmt"
	"sync"
	"time"

	"clobbernvm/internal/clobber"
	"clobbernvm/internal/harness"
	"clobbernvm/internal/memcache"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
)

// The serving stack, assembled the way cmd/memcachedsim assembles it with
// its default flags: clobber engine at nvm.DefaultLatency on a prefaulted
// fast-path pool, one shard, rwlock, front cache off, group commit off, one
// write lane, eight server slots, a crash-recovery supervisor whose rebuild
// re-attaches allocator and engine the same way, and obs metrics plus the
// 4096-event trace ring on. Only the deployment sizes (-pool-mb,
// -capacity) vary by workload.
const (
	mcRootSlot    = 34 // memcachedsim's root slot
	mcServerConns = 8  // memcachedsim's serverConns
	mcTraceRing   = 4096
)

// hooks lets the benchmark's self-tests interpose on the stack.
type hooks struct {
	// backend, when set, wraps the supervisor before the (traced) Backend
	// the server sees.
	backend func(memcache.Backend) memcache.Backend
	// genDelay, when positive, makes the generator late by that much per
	// batch.
	genDelay time.Duration
}

// incarnation is one (pool, engine) generation; recovery replaces it.
type incarnation struct {
	pool *nvm.Pool
	eng  *clobber.Engine
}

// stack is one deployed serving world.
type stack struct {
	sup     *memcache.Supervisor
	backend memcache.Backend // what the server or client calls
	rec     *recorder

	mu  sync.Mutex
	cur incarnation
	// retired sums the final counters of every incarnation recovery has
	// replaced (their pools are dropped, so memory stays bounded).
	retired counters
	// rebuilds holds the timing of each rebuild.
	rebuilds []rebuildTiming
}

type rebuildTiming struct {
	start, imageEnd, pmemEnd, engEnd int64
}

func (s *stack) current() incarnation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// total returns the counters summed over every incarnation so far.
func (s *stack) total() counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retired.add(snapInc(s.cur))
}

// newStack provisions pool, engine, cache and supervisor. rec, when
// non-nil, wraps the engine and Backend seams in span recorders.
func newStack(poolMB, capacity uint64, rec *recorder, h hooks) (*stack, error) {
	sc := harness.SmallScale
	sc.PoolBytes = poolMB << 20
	sc.Latency = nvm.DefaultLatency
	sc.Threads = []int{mcServerConns}
	setup, err := harness.NewSetup(harness.EngineClobber, sc)
	if err != nil {
		return nil, err
	}
	ceng, ok := setup.Engine.(*clobber.Engine)
	if !ok {
		return nil, fmt.Errorf("serving stack: engine is %T, want clobber", setup.Engine)
	}
	s := &stack{rec: rec, cur: incarnation{pool: setup.Pool, eng: ceng}}
	var eng pds.Engine = ceng
	if rec != nil {
		eng = &tracedEngine{Engine: ceng, rec: rec}
	}
	copts := memcache.Options{Capacity: capacity, Lock: memcache.LockRW}
	cache, err := memcache.New(eng, mcRootSlot, copts)
	if err != nil {
		return nil, err
	}
	s.sup = memcache.NewSupervisor(cache, setup.Pool, mcRootSlot, copts, s.rebuild(sc))
	var b memcache.Backend = s.sup
	if h.backend != nil {
		b = h.backend(b)
	}
	if rec != nil {
		b = &tracedBackend{Backend: b, rec: rec}
	}
	s.backend = b
	return s, nil
}

// rebuild is memcachedsim's RebuildFunc, with each phase timed when traced.
func (s *stack) rebuild(sc harness.Scale) memcache.RebuildFunc {
	return func(img []byte) (*nvm.Pool, pds.Engine, error) {
		t := rebuildTiming{start: now()}
		p, err := nvm.NewFromImage(img, nvm.WithLatency(sc.Latency))
		if err != nil {
			return nil, nil, err
		}
		p.Prefault()
		p.SetFastPath(true)
		t.imageEnd = now()
		a, err := pmem.Attach(p)
		if err != nil {
			return nil, nil, err
		}
		t.pmemEnd = now()
		e, err := harness.AttachEngine(harness.EngineClobber, p, a)
		if err != nil {
			return nil, nil, err
		}
		t.engEnd = now()
		ce, ok := e.(*clobber.Engine)
		if !ok {
			return nil, nil, fmt.Errorf("rebuild: engine is %T, want clobber", e)
		}
		s.mu.Lock()
		s.retired = s.retired.add(snapInc(s.cur))
		s.cur = incarnation{pool: p, eng: ce}
		s.rebuilds = append(s.rebuilds, t)
		s.mu.Unlock()
		if s.rec != nil {
			s.rec.cycle.Add(1)
			return p, &tracedEngine{Engine: ce, rec: s.rec}, nil
		}
		return p, ce, nil
	}
}

// enableObs turns on what memcachedsim turns on before serving: metrics and
// the in-memory lifecycle trace ring. It returns the function restoring the
// previous state.
func enableObs() func() {
	prev := obs.Enable(true)
	old := obs.SetSink(obs.NewRingSink(mcTraceRing))
	return func() {
		obs.SetSink(old)
		obs.Enable(prev)
	}
}

// snapInc reads one incarnation's cumulative counters.
func snapInc(inc incarnation) counters {
	es := inc.eng.Stats().Snapshot()
	a, f, b, rf := inc.eng.Allocator().Stats().Snapshot()
	return counters{pool: snapPool(inc.pool), engEntries: es.LogEntries, engBytes: es.LogBytes,
		vlogByte: es.VLogBytes, committed: es.Committed, allocs: a, frees: f, bytes: b, refills: rf}
}
