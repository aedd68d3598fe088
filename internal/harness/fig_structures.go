package harness

import (
	"errors"
	"sync"
	"time"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/roster"
	"clobbernvm/internal/ycsb"
)

// populate loads n entries single-threaded (the unmeasured YCSB load
// prefix).
func populate(s pds.Store, kind StructureKind, n int, seed int64) error {
	g := ycsb.NewGenerator(ycsb.WorkloadLoad, n, KeySize(kind), ValueSize, seed)
	for i := 0; i < n; i++ {
		op := g.Next()
		if err := s.Insert(0, op.Key, op.Value); err != nil {
			return err
		}
	}
	return nil
}

// measureInsertThroughput inserts ops fresh keys across threads and returns
// the elapsed time. Keys are partitioned so threads never collide on the
// same key (the YCSB-Load pattern).
func measureInsertThroughput(s pds.Store, kind StructureKind, base, ops, threads int) (time.Duration, error) {
	perThread := ops / threads
	if perThread == 0 {
		perThread = 1
	}
	var wg sync.WaitGroup
	errs := make([]error, threads)
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			g := ycsb.NewGenerator(ycsb.WorkloadLoad, 0, KeySize(kind), ValueSize, int64(t)*7919)
			for i := 0; i < perThread; i++ {
				key := g.Key(base + t*perThread + i)
				op := g.Next()
				if err := s.Insert(t, key, op.Value); err != nil {
					errs[t] = err
					return
				}
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// Fig6 measures data-structure insert throughput for the four libraries
// across the thread sweep (Figure 6). Output columns mirror the artifact's
// fig6.csv: engine, structure, threads, run, value size, throughput (ops/s).
func Fig6(sc Scale) (*Table, error) {
	t := &Table{
		Name:   "fig6",
		Header: []string{"engine", "structure", "threads", "run", "valuesize", "ops_per_sec"},
	}
	engines := []EngineKind{EngineClobber, EnginePMDK, EngineMnemosyne, EngineAtlas}
	for _, st := range AllStructures {
		for _, ek := range engines {
			for _, threads := range sc.Threads {
				for run := 0; run < sc.Runs; run++ {
					setup, err := NewSetup(ek, sc)
					if err != nil {
						return nil, err
					}
					store, err := OpenStructure(st, setup.Engine)
					if err != nil {
						return nil, err
					}
					if err := populate(store, st, sc.Entries, 1); err != nil {
						return nil, err
					}
					elapsed, err := measureInsertThroughput(store, st, sc.Entries, sc.Ops, threads)
					if err != nil {
						return nil, err
					}
					t.add(string(ek), string(st), threads, run, ValueSize,
						opsPerSec(sc.Ops, elapsed))
				}
			}
		}
	}
	return t, nil
}

// Fig7 measures the logging-strategy breakdown (Figure 7): No-log, v_log
// only, clobber_log only, full Clobber-NVM, and PMDK full undo, single
// threaded — throughput plus log entries and bytes per transaction.
func Fig7(sc Scale) (*Table, error) {
	t := &Table{
		Name: "fig7",
		Header: []string{"variant", "structure", "ops_per_sec",
			"log_entries_per_tx", "log_bytes_per_tx", "flushes_per_tx", "fences_per_tx"},
	}
	variants := []EngineKind{EngineNoLog, EngineClobberVLogOnly, EngineClobberCLogOnly,
		EngineClobber, EnginePMDK}
	for _, st := range AllStructures {
		for _, ek := range variants {
			setup, err := NewSetup(ek, sc)
			if err != nil {
				return nil, err
			}
			store, err := OpenStructure(st, setup.Engine)
			if err != nil {
				return nil, err
			}
			if err := populate(store, st, sc.Entries, 1); err != nil {
				return nil, err
			}
			s0 := setup.Engine.Stats().Snapshot()
			p0 := setup.Pool.Stats()
			elapsed, err := measureInsertThroughput(store, st, sc.Entries, sc.Ops, 1)
			if err != nil {
				return nil, err
			}
			ds := setup.Engine.Stats().Snapshot().Sub(s0)
			dp := setup.Pool.Stats().Sub(p0)
			entries, bytes := statsPerTx(ds, sc.Ops)
			t.add(string(ek), string(st), opsPerSec(sc.Ops, elapsed),
				entries, bytes,
				float64(dp.Flushes)/float64(sc.Ops),
				float64(dp.Fences)/float64(sc.Ops))
		}
	}
	return t, nil
}

// Fig8 compares the recovery-via-resumption family's log traffic per
// transaction (Figure 8, extended with JUSTDO from §6) by replaying the
// same insert workload through Clobber-NVM, the iDO meter and the JUSTDO
// meter.
func Fig8(sc Scale) (*Table, error) {
	t := &Table{
		Name:   "fig8",
		Header: []string{"system", "structure", "log_entries_per_tx", "log_bytes_per_tx"},
	}
	for _, st := range AllStructures {
		// Clobber.
		setup, err := NewSetup(EngineClobber, sc)
		if err != nil {
			return nil, err
		}
		store, err := OpenStructure(st, setup.Engine)
		if err != nil {
			return nil, err
		}
		if err := populate(store, st, sc.Entries, 1); err != nil {
			return nil, err
		}
		s0 := setup.Engine.Stats().Snapshot()
		if _, err := measureInsertThroughput(store, st, sc.Entries, sc.Ops, 1); err != nil {
			return nil, err
		}
		ce, cb := statsPerTx(setup.Engine.Stats().Snapshot().Sub(s0), sc.Ops)
		t.add("clobber", string(st), ce, cb)

		// The instrumentation meters over identical fresh pools/workloads.
		for _, sys := range []EngineKind{"ido", "justdo"} {
			pool := nvm.New(sc.PoolBytes, nvm.WithLatency(sc.Latency))
			alloc, err := pmem.Create(pool)
			if err != nil {
				return nil, err
			}
			eng, err := createEngine(sys, pool, alloc, roster.Sizing{})
			if err != nil {
				return nil, err
			}
			stats := eng.Stats()
			mstore, err := OpenStructure(st, eng)
			if err != nil {
				return nil, err
			}
			if err := populate(mstore, st, sc.Entries, 1); err != nil {
				return nil, err
			}
			m0 := stats.Snapshot()
			if _, err := measureInsertThroughput(mstore, st, sc.Entries, sc.Ops, 1); err != nil {
				return nil, err
			}
			ie, ib := statsPerTx(stats.Snapshot().Sub(m0), sc.Ops)
			t.add(string(sys), string(st), ie, ib)
		}
	}
	return t, nil
}

// Fig9 measures recovery latency after a crash mid-transaction, Clobber vs
// PMDK (Figure 9): pool reattach + log application (+ re-execution for
// clobber), per structure.
func Fig9(sc Scale) (*Table, error) {
	t := &Table{
		Name:   "fig9",
		Header: []string{"engine", "structure", "run", "recovery_ms", "recovered_tx"},
	}
	for _, st := range AllStructures {
		for _, ek := range []EngineKind{EngineClobber, EnginePMDK} {
			for run := 0; run < sc.Runs; run++ {
				ms, recovered, err := MeasureRecovery(ek, st, sc, int64(run))
				if err != nil {
					return nil, err
				}
				t.add(string(ek), string(st), run, ms, recovered)
			}
		}
	}
	return t, nil
}

// MeasureRecovery performs one crash-and-recover cycle: populate, crash at
// a seeded point inside an insert, power-fail the pool, then time the
// reopen + recovery path (the Figure 9 measurement). It returns the timed
// duration and how many transactions recovery completed.
func MeasureRecovery(ek EngineKind, st StructureKind, sc Scale, seed int64) (time.Duration, int, error) {
	pool := nvm.New(sc.PoolBytes, nvm.WithLatency(sc.Latency),
		nvm.WithEvictProbability(0.5), nvm.WithSeed(seed+1))
	alloc, err := pmem.Create(pool)
	if err != nil {
		return 0, 0, err
	}
	eng, err := createEngine(ek, pool, alloc, sc.sizing(DefaultDataLogCap))
	if err != nil {
		return 0, 0, err
	}
	store, err := OpenStructure(st, eng)
	if err != nil {
		return 0, 0, err
	}
	if err := populate(store, st, sc.Entries, 1); err != nil {
		return 0, 0, err
	}

	// Crash at a random point inside one more insert.
	g := ycsb.NewGenerator(ycsb.WorkloadLoad, 0, KeySize(st), ValueSize, seed)
	pool.ScheduleCrash(5 + 11*seed%50)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err, ok := r.(error)
				if !ok || !errors.Is(err, nvm.ErrCrash) {
					panic(r)
				}
			}
		}()
		_ = store.Insert(0, g.Key(sc.Entries+int(seed)), g.Next().Value)
	}()
	pool.Crash()

	// Timed region: reopen and recover (the paper's recovery overhead).
	start := time.Now()
	alloc2, err := pmem.Attach(pool)
	if err != nil {
		return 0, 0, err
	}
	eng2, err := AttachEngine(ek, pool, alloc2)
	if err != nil {
		return 0, 0, err
	}
	if _, err := OpenStructure(st, eng2); err != nil {
		return 0, 0, err
	}
	n, err := eng2.Recover()
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), n, nil
}
