package nvm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// randomPersistOps drives p through n seeded operations mixing every writer
// (Store, Store64, CAS64) with every way a line leaves the dirty set
// (Flush, FlushOpt, FlushOptLines, Fence), leaving an arbitrary unfenced
// residue behind. A scheduled crash may cut the sequence short; the ErrCrash
// panic is absorbed and reported.
func randomPersistOps(p *Pool, rng *rand.Rand, n int) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); !ok || !errors.Is(err, ErrCrash) {
				panic(r)
			}
			crashed = true
		}
	}()
	span := int(p.Size() - HeaderSize - 256)
	for i := 0; i < n; i++ {
		addr := HeaderSize + uint64(rng.Intn(span))
		switch rng.Intn(7) {
		case 0:
			buf := make([]byte, 1+rng.Intn(200))
			rng.Read(buf)
			p.Store(addr, buf)
		case 1:
			p.Store64(addr&^7, rng.Uint64())
		case 2:
			a := addr &^ 7
			p.CAS64(a, p.Load64(a), rng.Uint64())
		case 3:
			p.Flush(addr, uint64(1+rng.Intn(128)))
		case 4:
			p.FlushOpt(addr, uint64(1+rng.Intn(128)))
		case 5:
			p.FlushOptLines([]uint64{addr / LineSize})
		case 6:
			p.Fence()
		}
	}
	return false
}

// TestCrashLeavesCoherentEqualToMedia is the property Crash's dirty-lines-
// only restore rests on: after a crash the coherent view equals the durable
// view byte for byte, in both bookkeeping modes, under every eviction
// policy, whether the crash is manual or a scheduled one fired mid-sequence.
func TestCrashLeavesCoherentEqualToMedia(t *testing.T) {
	policies := []EvictPolicy{EvictRandom, EvictNone, EvictAll, EvictTorn}
	for _, fast := range []bool{false, true} {
		for _, ev := range policies {
			for seed := int64(1); seed <= 8; seed++ {
				name := fmt.Sprintf("fast=%v/%v/seed=%d", fast, ev, seed)
				p := New(1<<16, WithEviction(ev), WithSeed(seed))
				rng := rand.New(rand.NewSource(seed))
				for round := 0; round < 4; round++ {
					p.SetFastPath(fast)
					if !fast && round%2 == 1 {
						p.ScheduleCrashAt(CrashAtAny, int64(1+rng.Intn(600)))
					}
					randomPersistOps(p, rng, 300)
					p.Crash()
					if coh, dur := p.CoherentSnapshot(), p.Snapshot(); !bytes.Equal(coh, dur) {
						t.Fatalf("%s round %d: coherent view differs from media after Crash", name, round)
					}
					if d := p.DirtyLines(); d != 0 {
						t.Fatalf("%s round %d: %d dirty lines after Crash", name, round, d)
					}
				}
			}
		}
	}
}

// expectOutOfRange runs fn and fails unless it panics with ErrOutOfRange.
func expectOutOfRange(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if err, ok := r.(error); !ok || !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("%s on a retired pool: recovered %v, want ErrOutOfRange", what, r)
		}
	}()
	fn()
}

// TestTakeImage: the handed-over image is exactly what Snapshot would have
// copied — on a fast-path pool too, whose media TakeImage must settle
// itself — and the retired pool refuses every data access while its
// counters stay readable.
func TestTakeImage(t *testing.T) {
	for _, fast := range []bool{false, true} {
		// Twin pools under one op sequence: one is snapshotted, the other
		// hands its image over with no Snapshot before it.
		twin, p := New(1<<16, WithSeed(3)), New(1<<16, WithSeed(3))
		for _, q := range []*Pool{twin, p} {
			q.SetFastPath(fast)
			randomPersistOps(q, rand.New(rand.NewSource(5)), 400)
		}
		want := twin.Snapshot()
		stats, dirty := p.Stats(), twin.DirtyLines() // fast mode settles to 0
		img := p.TakeImage()
		if !bytes.Equal(img, want) {
			t.Fatalf("fast=%v: TakeImage differs from a Snapshot taken just before", fast)
		}
		if _, err := NewFromImage(img); err != nil {
			t.Fatalf("fast=%v: taken image does not open: %v", fast, err)
		}
		if got := p.Stats(); got != stats {
			t.Fatalf("fast=%v: Stats changed across TakeImage: %+v vs %+v", fast, got, stats)
		}
		if got := p.DirtyLines(); got != dirty {
			t.Fatalf("fast=%v: DirtyLines = %d after TakeImage, want %d", fast, got, dirty)
		}
		_ = p.GroupCommitStats()
		addr := p.HeapBase()
		expectOutOfRange(t, "Load", func() { p.Load(addr, make([]byte, 8)) })
		expectOutOfRange(t, "Load64", func() { p.Load64(addr) })
		expectOutOfRange(t, "Store", func() { p.Store(addr, []byte{1}) })
		expectOutOfRange(t, "Store64", func() { p.Store64(addr, 1) })
		expectOutOfRange(t, "Flush", func() { p.Flush(addr, 8) })
		expectOutOfRange(t, "FlushOpt", func() { p.FlushOpt(addr, 8) })
	}
}
