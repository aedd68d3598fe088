package crashsweep

import (
	"testing"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/roster"
)

// TestShardedSweepClobberHashmap crashes every fence-class persist point of
// the victim shard behind a 4-way router and requires all-or-nothing
// recovery plus perfect survivor isolation at each one.
func TestShardedSweepClobberHashmap(t *testing.T) {
	kind := nvm.CrashAtAny
	if testing.Short() {
		kind = nvm.CrashAtFence
	}
	res, err := RunSharded(Config{
		Engine: "clobber", Structure: "hashmap",
		Kind: kind, Policy: nvm.EvictRandom, Seed: 7,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 {
		t.Errorf("Shards = %d, want 4", res.Shards)
	}
	if res.Victim < 0 || res.Victim >= 4 {
		t.Errorf("Victim = %d, want in [0,4)", res.Victim)
	}
	if res.PersistPoints == 0 {
		t.Fatal("sharded sweep found no persist points on the victim shard")
	}
	if res.Crashes != int(res.PersistPoints) {
		t.Fatalf("crashes = %d, want one per persist point (%d)", res.Crashes, res.PersistPoints)
	}
	if !res.Ok() {
		t.Fatalf("sharded sweep found %d mismatches, first: %v", len(res.Mismatches), res.Mismatches[0])
	}
	t.Logf("clobber/hashmap over 4 shards: victim=%d, %d persist points, %d recovered (%d re-executed)",
		res.Victim, res.PersistPoints, res.Recovered, res.Reexecuted)
}

// TestShardedSweepOneShardDegenerates pins the shards<=1 fast path: it must
// be the unsharded sweep, bit for bit, including the zero-valued shard
// fields in the result.
func TestShardedSweepOneShardDegenerates(t *testing.T) {
	cfg := Config{Engine: "pmdk", Structure: "list", Kind: nvm.CrashAtFence, Seed: 3}
	a, err := RunSharded(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Shards != 0 || a.Victim != 0 {
		t.Errorf("one-shard run set shard fields: Shards=%d Victim=%d", a.Shards, a.Victim)
	}
	if a.PersistPoints != b.PersistPoints || a.Crashes != b.Crashes || len(a.Mismatches) != len(b.Mismatches) {
		t.Fatalf("RunSharded(cfg, 1) diverged from Run(cfg): %+v vs %+v", a, b)
	}
}

// TestShardedSweepDetectsNonAtomicEngine proves the auditor still convicts
// a crash-unsafe engine when it hides behind the router: the naive in-place
// engine from the unsharded conviction test, swept over 2 shards.
func TestShardedSweepDetectsNonAtomicEngine(t *testing.T) {
	spec := EngineSpec{
		Name: "naive", Style: roster.StyleAtomic,
		Create: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			return &naiveEngine{pool: p, alloc: a}, nil
		},
		Attach: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			return &naiveEngine{pool: p, alloc: a}, nil
		},
	}
	res, err := RunShardedSpec(spec, Config{
		Structure: "list", Kind: nvm.CrashAtAny, Policy: nvm.EvictNone, Seed: 2,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok() {
		t.Fatal("sharded sweep failed to detect a crash-unsafe engine")
	}
	t.Logf("naive engine behind router: %d/%d points flagged", len(res.Mismatches), res.PersistPoints)
}
