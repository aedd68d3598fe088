package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/shard"
)

// Floors for the per-shard split: below these a shard cannot hold the
// allocator metadata plus the engine's slot blocks.
const (
	minShardPoolBytes = 1 << 23 // 8 MiB
	minShardDataCap   = 1 << 19 // 512 KiB per-slot log
)

// shardScale derives the per-shard sizing from a sweep scale: pool bytes
// and per-slot log capacity are split evenly across shards (floored), so N
// shards occupy the same total space as the unsharded pool they replace —
// the comparison BENCH_PR7 makes is shards-vs-one-equal-sized-pool, not
// shards-vs-one-small-pool.
func shardScale(sc Scale) (perShard Scale, dataCap uint64) {
	n := sc.Shards
	if n < 1 {
		n = 1
	}
	perShard = sc
	perShard.PoolBytes = sc.PoolBytes / uint64(n)
	if perShard.PoolBytes < minShardPoolBytes {
		perShard.PoolBytes = minShardPoolBytes
	}
	dataCap = DefaultDataLogCap / uint64(n)
	if dataCap < minShardDataCap {
		dataCap = minShardDataCap
	}
	return perShard, dataCap
}

// ShardedSetup is N freshly provisioned persistence domains behind a
// consistent-hash router — the sharded analogue of Setup.
type ShardedSetup struct {
	Set   *shard.Set
	Kind  EngineKind
	Scale Scale
}

// NewShardedSetup provisions sc.Shards independent pools, each with its own
// allocator, engine (and, if enabled, group-commit coordinator), behind a
// router. Shards == 0 or 1 yields a one-shard set whose single domain is
// built exactly like NewSetup builds the unsharded pool.
func NewShardedSetup(kind EngineKind, sc Scale) (*ShardedSetup, error) {
	n := sc.Shards
	if n < 1 {
		n = 1
	}
	per, dataCap := shardScale(sc)
	shards := make([]*shard.Shard, n)
	for i := range shards {
		pool := nvm.New(per.PoolBytes, nvm.WithLatency(per.Latency))
		pool.Prefault()
		pool.SetFastPath(true)
		if per.GroupCommit {
			pool.GroupCommit(per.maxSlots(), nvm.DefaultGroupCommitDelayNS)
		}
		alloc, err := pmem.Create(pool)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		eng, err := createEngine(kind, pool, alloc, per.sizing(dataCap))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		shards[i] = &shard.Shard{Pool: pool, Alloc: alloc, Engine: eng}
	}
	return &ShardedSetup{Set: shard.NewSet(shards), Kind: kind, Scale: sc}, nil
}

// RebuildShard reconstitutes one shard from its durable pool image — the
// post-crash path: reopen the image, re-attach the allocator and engine
// (sizing comes from the durable header), restore the volatile pool modes.
// The caller re-opens structures (re-registering txfuncs) and runs recovery
// before swapping the shard back into its set.
func RebuildShard(kind EngineKind, img []byte, sc Scale) (*shard.Shard, error) {
	pool, err := nvm.NewFromImage(img, nvm.WithLatency(sc.Latency))
	if err != nil {
		return nil, err
	}
	pool.Prefault()
	pool.SetFastPath(true)
	if sc.GroupCommit {
		pool.GroupCommit(sc.maxSlots(), nvm.DefaultGroupCommitDelayNS)
	}
	alloc, err := pmem.Attach(pool)
	if err != nil {
		return nil, err
	}
	eng, err := AttachEngine(kind, pool, alloc)
	if err != nil {
		return nil, err
	}
	return &shard.Shard{Pool: pool, Alloc: alloc, Engine: eng}, nil
}

// OpenShardedStructure opens the named structure on every shard's engine
// and returns the routed dispatch view over them.
func OpenShardedStructure(kind StructureKind, set *shard.Set) (*shard.RoutedStore, error) {
	stores := make([]pds.Store, set.N())
	for i := range stores {
		st, err := OpenStructure(kind, set.Shard(i).Engine)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		stores[i] = st
	}
	return shard.NewRoutedStore(set, stores)
}

// ShardSweepPoint is one shard-count measurement in the BENCH_PR7 sweep:
// routed YCSB-Load insert throughput at the scale's widest thread count,
// plus the two recovery costs the sharded architecture changes — the time
// to bring one crashed shard back to serving (rebuild + structure reopen +
// log recovery over pool/N bytes, while the other shards never stop), and
// the time for a whole-process restart recovering all shards through the
// worker pool.
type ShardSweepPoint struct {
	Shards           int     `json:"shards"`
	Threads          int     `json:"threads"`
	NSPerOp          float64 `json:"ns_per_op"`
	OpsPerSec        float64 `json:"ops_per_sec"`
	CrashRecoveryNS  int64   `json:"single_shard_crash_recovery_ns"`
	FullRestartNS    int64   `json:"full_restart_recovery_ns"`
	RecoveryWorkers  int     `json:"recovery_workers"`
	RecoverySpeedupX float64 `json:"crash_recovery_speedup_vs_1shard"`
}

// measureShardCrashRecovery crashes shard 0, then times the full path back
// to serving: take the durable image (the copy-free handover the memcache
// supervisor uses; the victim's pool is replaced right after), rebuild
// pool+allocator+engine, reopen the structure (re-registering txfuncs), run
// the shard's recovery, and swap it into the set. Every other shard is
// untouched throughout.
func measureShardCrashRecovery(setup *ShardedSetup, store *shard.RoutedStore) (int64, error) {
	const victim = 0
	per, _ := shardScale(setup.Scale)
	setup.Set.Shard(victim).Pool.Crash()
	// The timed region copies and faults pool-sized buffers; collect first so
	// the measurement is rebuild+recovery, not a GC cycle another measurement
	// provoked.
	runtime.GC()
	t0 := time.Now()
	img := setup.Set.Shard(victim).Pool.TakeImage()
	sh, err := RebuildShard(setup.Kind, img, per)
	if err != nil {
		return 0, err
	}
	st, err := OpenStructure(StructHashMap, sh.Engine)
	if err != nil {
		return 0, err
	}
	setup.Set.Replace(victim, sh)
	if _, err := setup.Set.RecoverOne(victim); err != nil {
		return 0, err
	}
	store.ReplaceStore(victim, st)
	return time.Since(t0).Nanoseconds(), nil
}

// measureFullRestart simulates a whole-process restart: every shard is
// reconstituted from its durable image and recovered, rebuild and recovery
// both running in a worker pool sized to the core count. Returns the wall
// time and the worker count used.
func measureFullRestart(setup *ShardedSetup, store *shard.RoutedStore) (int64, int, error) {
	n := setup.Set.N()
	per, _ := shardScale(setup.Scale)
	imgs := make([][]byte, n)
	for i := 0; i < n; i++ {
		imgs[i] = setup.Set.Shard(i).Pool.CoherentSnapshot()
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	runtime.GC()
	t0 := time.Now()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				sh, err := RebuildShard(setup.Kind, imgs[i], per)
				if err == nil {
					var st pds.Store
					if st, err = OpenStructure(StructHashMap, sh.Engine); err == nil {
						setup.Set.Replace(i, sh)
						store.ReplaceStore(i, st)
					}
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("shard %d: %w", i, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return 0, workers, firstErr
	}
	rep, err := setup.Set.RecoverAll(workers)
	if err != nil {
		return 0, workers, err
	}
	return time.Since(t0).Nanoseconds(), rep.Workers, nil
}

// RunShardSweep measures the clobber engine across shard counts: routed
// insert throughput at the widest thread count, single-shard crash
// recovery, and whole-process restart. The speedup column compares crash
// recovery against the 1-shard (unsharded-equivalent) row, which must come
// first in counts: a crash in the unsharded architecture rebuilds and
// rescans the whole pool, at N shards only pool/N bytes — the O(pool) →
// O(pool/N) recovery claim measured end to end.
func RunShardSweep(sc Scale, counts []int) ([]ShardSweepPoint, error) {
	threads := 1
	for _, t := range sc.Threads {
		if t > threads {
			threads = t
		}
	}
	var out []ShardSweepPoint
	var baseCrashNS int64
	for _, n := range counts {
		sc2 := sc
		sc2.Shards = n
		setup, err := NewShardedSetup(EngineClobber, sc2)
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", n, err)
		}
		store, err := OpenShardedStructure(StructHashMap, setup.Set)
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", n, err)
		}
		if err := populate(store, StructHashMap, sc.Entries, 1); err != nil {
			return nil, fmt.Errorf("shards=%d populate: %w", n, err)
		}
		elapsed, err := measureInsertThroughput(store, StructHashMap, sc.Entries, sc.Ops, threads)
		if err != nil {
			return nil, fmt.Errorf("shards=%d inserts: %w", n, err)
		}
		nsPerOp := float64(elapsed.Nanoseconds()) / float64(sc.Ops)

		// Best of three: one recovery moves pool-sized images around, so a
		// single sample can absorb hundreds of milliseconds of page faults
		// and GC; the minimum is the reproducible cost of the path itself.
		const recoveryReps = 3
		var fullNS int64
		var workers int
		for r := 0; r < recoveryReps; r++ {
			ns, w, err := measureFullRestart(setup, store)
			if err != nil {
				return nil, fmt.Errorf("shards=%d restart: %w", n, err)
			}
			if r == 0 || ns < fullNS {
				fullNS, workers = ns, w
			}
		}
		var crashNS int64
		for r := 0; r < recoveryReps; r++ {
			ns, err := measureShardCrashRecovery(setup, store)
			if err != nil {
				return nil, fmt.Errorf("shards=%d crash recovery: %w", n, err)
			}
			if r == 0 || ns < crashNS {
				crashNS = ns
			}
		}
		if baseCrashNS == 0 {
			baseCrashNS = crashNS
		}
		speedup := 0.0
		if crashNS > 0 {
			speedup = float64(baseCrashNS) / float64(crashNS)
		}
		out = append(out, ShardSweepPoint{
			Shards: n, Threads: threads,
			NSPerOp: nsPerOp, OpsPerSec: 1e9 / nsPerOp,
			CrashRecoveryNS: crashNS, FullRestartNS: fullNS,
			RecoveryWorkers: workers, RecoverySpeedupX: speedup,
		})
	}
	return out, nil
}
