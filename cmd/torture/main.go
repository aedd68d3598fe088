// Command torture drives the crash-consistency fault injector from the
// command line in two modes:
//
//   - sweep: exhaustive persist-point fault injection (internal/crashsweep) —
//     run the workload once to count persist points, then crash at every
//     single one, recover, and audit all-or-nothing against a model;
//   - random: randomized long-haul stress — random operation streams with a
//     crash at a random persist point each round, recovery, and a full-model
//     audit, for adversarial mileage beyond the deterministic sweep;
//   - prop: property-based differential torture (internal/proptest) — seeded
//     randomized op sequences checked against a reference model through
//     crash-recover cycles at sampled persist points; failures are shrunk by
//     delta debugging to a smallest reproducer and printed as a one-line
//     replay command;
//   - chaos (-chaos): online crash/recover torture (internal/chaos) — a live
//     memcached server under concurrent client fire, crashed at seeded random
//     persist points and recovered in place by the supervisor while the
//     durability-at-ack invariant is audited every round.
//
// Every failure prints the exact command that reproduces it. -replay takes
// the spec line a prop failure printed and re-runs exactly that scenario.
//
// Exit status is non-zero on any consistency mismatch.
//
//	torture -mode sweep -engine clobber -structure rbtree -crash-at any
//	torture -mode random -engine pmdk -structure hashmap -rounds 200 -evict torn
//	torture -mode prop -engine pmdk -structure rbtree -seqs 50 -samples 3
//	torture -chaos -engine clobber -clients 8 -rounds 20 -seed 1
//	torture -replay "engine=pmdk structure=rbtree seed=7 ops=30 crash-at=any evict=all point=67 threads=1 keep=28"
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"clobbernvm/internal/chaos"
	"clobbernvm/internal/crashsweep"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/proptest"
	"clobbernvm/internal/roster"
	"clobbernvm/internal/txn"
)

const rootSlot = 16

func main() {
	mode := flag.String("mode", "random", "mode: sweep (exhaustive persist-point injection), random, or prop (property-based differential torture)")
	engine := flag.String("engine", "clobber", "engine: clobber, pmdk, mnemosyne, atlas, ido, justdo")
	structure := flag.String("structure", "rbtree", "structure: hashmap, skiplist, rbtree, bptree, avltree, list, lfhashmap (clobber-family)")
	crashAt := flag.String("crash-at", "any", "persist-point class to crash at: store, flush, fence, any")
	evict := flag.String("evict", "random", "cache eviction adversary at crash: random, none, all, torn")
	rounds := flag.Int("rounds", 100, "random mode: crash/recover rounds")
	opsPerRound := flag.Int("ops", 50, "random/prop mode: operations per round/sequence")
	liveOps := flag.Int("live-ops", 3, "sweep mode: operations in the swept window")
	seed := flag.Int64("seed", 1, "RNG seed")
	seqs := flag.Int("seqs", 30, "prop mode: generated sequences")
	samples := flag.Int("samples", 3, "prop mode: crash points sampled per sequence")
	threads := flag.Int("threads", 1, "prop mode: concurrent worker streams (>1 enables concurrent-history checking)")
	groupCommit := flag.Bool("group-commit", false, "enable epoch-based group commit on the torture pool (crashes can land inside shared commit epochs)")
	chaosMode := flag.Bool("chaos", false, "online chaos mode: live server, concurrent clients, crash/recover under traffic with a durability-at-ack audit (overrides -mode)")
	clients := flag.Int("clients", 8, "chaos mode: concurrent clients")
	keys := flag.Int("keys", 48, "chaos mode: keys per client")
	shards := flag.Int("shards", 1, "independent persistence domains; >1 shards the backend (chaos: one victim shard crashes per round while the rest must keep serving; sweep: every persist point of one shard crashed while survivors are audited)")
	chaosBroken := flag.Bool("chaos-broken", false, "chaos mode: deliberately skip engine recovery — the harness self-test; the run MUST be convicted")
	frontCache := flag.Bool("front-cache", false, "chaos mode: serve reads through the volatile DRAM hot-key front cache; the audit additionally convicts any read older than the client's last ack")
	chaosFrontStale := flag.Bool("chaos-front-stale", false, "chaos mode: front cache with invalidation deliberately disabled — the coherence self-test; the run MUST be convicted")
	writeLanes := flag.Int("write-lanes", 0, "chaos mode: split each cache into that many independently locked persistent write lanes (0/1 = classic layout)")
	replay := flag.String("replay", "", "replay a proptest spec line exactly (overrides -mode)")
	flag.Parse()

	if *replay != "" {
		runReplay(*replay)
		return
	}

	kind, err := nvm.ParseCrashKind(*crashAt)
	check(err)
	policy, err := nvm.ParseEvictPolicy(*evict)
	check(err)

	if *chaosMode {
		runChaos(chaos.Spec{
			Engine: *engine, Clients: *clients, Rounds: *rounds,
			KeysPerClient: *keys, Seed: *seed,
			Kind: kind, Policy: policy, Broken: *chaosBroken,
			Shards:     *shards,
			FrontCache: *frontCache, FrontStale: *chaosFrontStale,
			Lanes: *writeLanes,
		})
		return
	}

	switch *mode {
	case "sweep":
		runSweep(*engine, *structure, kind, policy, *seed, *liveOps, *groupCommit, *shards)
	case "random":
		runRandom(*engine, *structure, kind, policy, *seed, *rounds, *opsPerRound, *groupCommit)
	case "prop":
		runProp(*engine, *structure, kind, policy, *seed, *seqs, *opsPerRound, *samples, *threads, *groupCommit)
	default:
		check(fmt.Errorf("unknown mode %q (want sweep|random|prop)", *mode))
	}
}

// runReplay re-runs exactly the scenario a torture failure printed.
func runReplay(line string) {
	spec, err := proptest.Parse(line)
	check(err)
	f, err := proptest.Run(spec)
	check(err)
	if f != nil {
		fmt.Fprintf(os.Stderr, "torture replay: FAIL: %s\n", f.Error())
		os.Exit(1)
	}
	fmt.Printf("torture replay: ok: %s\n", spec)
}

// runProp generates seeded op sequences, tortures each at sampled crash
// points, and shrinks the first failure to a smallest reproducer.
func runProp(engine, structure string, kind nvm.CrashKind, policy nvm.EvictPolicy,
	seed int64, seqs, ops, samples, threads int, groupCommit bool) {
	for s := 0; s < seqs; s++ {
		spec := proptest.Spec{
			Engine: engine, Structure: structure,
			Seed: seed + int64(s), Ops: ops,
			Kind: kind, Policy: policy, Threads: threads,
			GroupCommit: groupCommit,
		}
		f, err := proptest.TortureNamed(spec, samples)
		check(err)
		if f == nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "torture prop: FAIL: %s\n", f.Error())
		if threads <= 1 {
			min, evals, err := proptest.ShrinkNamed(*f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "torture prop: shrink: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "torture prop: shrunk to %d op(s) in %d evaluations\n",
					len(min.Spec.Keep), evals)
				fmt.Fprintf(os.Stderr, "torture prop: minimal: %s\n", min.Error())
			}
		}
		os.Exit(1)
	}
	fmt.Printf("torture prop: %s/%s survived %d sequences x %d sampled crash points (ops=%d threads=%d crash-at=%s evict=%s seed=%d gc=%v)\n",
		engine, structure, seqs, samples, ops, threads, kind, policy, seed, groupCommit)
}

// runChaos drives the online chaos schedule. Unlike sweep/random/prop, the
// broken self-test variant inverts the exit logic: a broken engine that
// escapes conviction is the failure.
func runChaos(spec chaos.Spec) {
	res, err := chaos.Run(spec, func(format string, a ...any) {
		fmt.Printf(format+"\n", a...)
	})
	if res == nil {
		check(err)
		return
	}
	if spec.Broken || spec.FrontStale {
		adversary := "broken engine"
		if spec.FrontStale {
			adversary = "non-invalidating front cache"
		}
		convicted := len(res.Violations) > 0 || err != nil
		if !convicted {
			fmt.Fprintf(os.Stderr, "torture chaos: %s escaped conviction after %d rounds\n", adversary, res.Rounds)
			fmt.Fprintf(os.Stderr, "torture chaos: reproduce: %s\n", res.Reproduce())
			os.Exit(1)
		}
		fmt.Printf("torture chaos: %s convicted after %d rounds (%d violations, err=%v)\n",
			adversary, res.Rounds, len(res.Violations), err)
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "torture chaos: %v\n", err)
		fmt.Fprintf(os.Stderr, "torture chaos: reproduce: %s\n", res.Reproduce())
		os.Exit(1)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(os.Stderr, "torture chaos: VIOLATION %s\n", v)
	}
	if len(res.Violations) > 0 || res.LeakedGoroutines > 0 {
		fmt.Fprintf(os.Stderr, "torture chaos: %d violation(s), %d leaked goroutine(s)\n",
			len(res.Violations), res.LeakedGoroutines)
		fmt.Fprintf(os.Stderr, "torture chaos: reproduce: %s\n", res.Reproduce())
		os.Exit(1)
	}
	fmt.Printf("torture chaos: %s survived %d crash/recover rounds with %d clients (acked=%d unacked=%d rejected=%d; recovered=%d reexec=%d rolled-back=%d rolled-forward=%d) in %v\n",
		spec.Engine, res.Rounds, spec.Clients,
		res.OpsAcked, res.OpsUnacked, res.OpsRejected,
		res.Recovered, res.Reexecuted, res.RolledBack, res.RolledForward, res.Elapsed)
}

// reproduceCmd is the exact command line that re-runs the current scenario;
// sweep and random set it on entry so every failure path can print it.
var reproduceCmd string

// runSweep crashes at every persist point of a deterministic workload; with
// shards > 1 the points swept belong to one victim shard behind the router
// and the audit additionally enforces survivor isolation.
func runSweep(engine, structure string, kind nvm.CrashKind, policy nvm.EvictPolicy, seed int64, liveOps int, groupCommit bool, shards int) {
	reproduceCmd = fmt.Sprintf("go run ./cmd/torture -mode sweep -engine %s -structure %s -crash-at %s -evict %s -seed %d -live-ops %d",
		engine, structure, kind, policy, seed, liveOps)
	if groupCommit {
		reproduceCmd += " -group-commit"
	}
	if shards > 1 {
		reproduceCmd += fmt.Sprintf(" -shards %d", shards)
	}
	res, err := crashsweep.RunSharded(crashsweep.Config{
		Engine:      engine,
		Structure:   structure,
		Kind:        kind,
		Policy:      policy,
		Seed:        seed,
		LiveOps:     liveOps,
		GroupCommit: groupCommit,
	}, shards)
	check(err)
	where := ""
	if res.Shards > 1 {
		where = fmt.Sprintf(" shards=%d victim=%d", res.Shards, res.Victim)
	}
	fmt.Printf("torture sweep: %s/%s crash-at=%s evict=%s%s: %d persist points, %d crashes, %d recovered (%d re-executed, %d rolled back, %d rolled forward), %d quarantined\n",
		res.Engine, res.Structure, res.Kind, res.Policy, where, res.PersistPoints, res.Crashes,
		res.Recovered, res.Reexecuted, res.RolledBack, res.RolledForward, res.Quarantined)
	if !res.Ok() {
		for _, m := range res.Mismatches {
			fmt.Fprintf(os.Stderr, "torture sweep: MISMATCH %v\n", m)
		}
		fmt.Fprintf(os.Stderr, "torture sweep: reproduce: %s\n", reproduceCmd)
		os.Exit(1)
	}
}

// runRandom is the randomized long-haul stress loop.
func runRandom(engine, structure string, kind nvm.CrashKind, policy nvm.EvictPolicy, seed int64, rounds, opsPerRound int, groupCommit bool) {
	reproduceCmd = fmt.Sprintf("go run ./cmd/torture -mode random -engine %s -structure %s -crash-at %s -evict %s -seed %d -rounds %d -ops %d",
		engine, structure, kind, policy, seed, rounds, opsPerRound)
	if groupCommit {
		reproduceCmd += " -group-commit"
	}
	spec, err := crashsweep.EngineByName(engine)
	check(err)

	rng := rand.New(rand.NewSource(seed))
	crashes, recoveries, quarantines, completions := 0, 0, 0, 0

	pool := nvm.New(1<<27, nvm.WithEvictProbability(0.5), nvm.WithSeed(seed), nvm.WithEviction(policy))
	if groupCommit {
		pool.GroupCommit(nvm.DefaultGroupCommitWaiters, nvm.DefaultGroupCommitDelayNS)
	}
	alloc, err := pmem.Create(pool)
	check(err)
	eng, err := spec.Create(pool, alloc)
	check(err)
	store, err := crashsweep.OpenStructure(structure, eng, rootSlot)
	check(err)
	meter := spec.Style == roster.StyleMeter

	model := map[string][]byte{}
	key := func() []byte { return []byte(fmt.Sprintf("key-%05d", rng.Intn(300))) }

	for round := 0; round < rounds; round++ {
		// A burst of committed operations, mirrored into the model.
		for i := 0; i < opsPerRound; i++ {
			k := key()
			if rng.Intn(4) == 0 {
				if _, err := store.Delete(0, k); err != nil {
					fatal(round, "delete", err)
				}
				delete(model, string(k))
			} else {
				v := []byte(fmt.Sprintf("val-%d-%d", round, i))
				if err := store.Insert(0, k, v); err != nil {
					fatal(round, "insert", err)
				}
				model[string(k)] = v
			}
		}

		// Crash during one more insert, at a random persist point of the
		// chosen class (ordinal ranges scaled to each class's density).
		crashKey := key()
		crashVal := []byte(fmt.Sprintf("crash-%d", round))
		pool.ScheduleCrashAt(kind, 1+int64(rng.Intn(pointRange(kind))))
		fired := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					err, ok := r.(error)
					if !ok || !errors.Is(err, nvm.ErrCrash) {
						panic(r)
					}
					fired = true
				}
			}()
			_ = store.Insert(0, crashKey, crashVal)
		}()
		pool.ScheduleCrashAt(kind, 0)
		if !fired {
			completions++
			model[string(crashKey)] = crashVal
			continue
		}
		crashes++

		if meter {
			// Meters are not failure-atomic; audit the simulator itself
			// (full eviction must reproduce the coherent state), then
			// resync the durable view and carry on.
			coh := pool.CoherentSnapshot()
			pool.SetEviction(nvm.EvictAll)
			pool.Crash()
			pool.SetEviction(policy)
			if !bytes.Equal(coh, pool.Snapshot()) {
				fatal(round, "audit", errors.New("full eviction did not reproduce coherent state"))
			}
			model[string(crashKey)] = crashVal
			continue
		}

		// Power loss; reopen everything.
		pool.Crash()
		alloc, err = pmem.Attach(pool)
		if err != nil {
			fatal(round, "attach allocator", err)
		}
		eng, err = spec.Attach(pool, alloc)
		if err != nil {
			fatal(round, "attach engine", err)
		}
		store, err = crashsweep.OpenStructure(structure, eng, rootSlot)
		if err != nil {
			fatal(round, "open structure", err)
		}
		var rep txn.RecoveryReport
		if rr, ok := eng.(txn.RecoveryReporter); ok {
			rep, err = rr.RecoverReport()
		} else {
			rep.Recovered, err = eng.Recover()
		}
		if err != nil {
			fatal(round, "recover", err)
		}
		recoveries += rep.Recovered
		quarantines += rep.Quarantined
		if rep.Quarantined > 0 {
			fatal(round, "recover", fmt.Errorf("pure power failure quarantined %d slot(s): %v",
				rep.Quarantined, errors.Join(rep.Errors...)))
		}

		// All-or-nothing audit for the crashed key.
		got, found, err := store.Get(0, crashKey)
		if err != nil {
			fatal(round, "get crash key", err)
		}
		prev, hadPrev := model[string(crashKey)]
		switch {
		case found && bytes.Equal(got, crashVal):
			model[string(crashKey)] = crashVal // completed (recovered or pre-crash)
		case found && hadPrev && bytes.Equal(got, prev):
			// rolled back / never happened: old value intact
		case !found && !hadPrev:
			// never happened, key was absent
		default:
			fatal(round, "audit", fmt.Errorf("torn state for %q: found=%v val=%q", crashKey, found, got))
		}

		// Every other committed key must be intact.
		for k, want := range model {
			if k == string(crashKey) {
				continue
			}
			got, found, err := store.Get(0, []byte(k))
			if err != nil || !found || !bytes.Equal(got, want) {
				fatal(round, "audit", fmt.Errorf("committed key %q lost or corrupt (found=%v err=%v)", k, found, err))
			}
		}
		fmt.Printf("torture: round %d: crash-at=%s point fired, %d recovered, %d keys intact\n",
			round, kind, rep.Recovered, len(model))
	}
	fmt.Printf("torture: %s/%s survived %d rounds (%d crashes, %d re-executions/rollbacks, %d quarantines, %d uninterrupted)\n",
		engine, structure, rounds, crashes, recoveries, quarantines, completions)
}

// pointRange bounds the random crash ordinal per persist-point class: one
// structure operation issues roughly this many events of each kind, so the
// crash usually lands inside the victim transaction.
func pointRange(kind nvm.CrashKind) int {
	switch kind {
	case nvm.CrashAtStore:
		return 150
	case nvm.CrashAtFlush:
		return 40
	case nvm.CrashAtFence:
		return 12
	default:
		return 200
	}
}

func fatal(round int, what string, err error) {
	fmt.Fprintf(os.Stderr, "torture: round %d: %s: %v\n", round, what, err)
	if reproduceCmd != "" {
		fmt.Fprintf(os.Stderr, "torture: reproduce: %s\n", reproduceCmd)
	}
	os.Exit(1)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "torture:", err)
		os.Exit(1)
	}
}
