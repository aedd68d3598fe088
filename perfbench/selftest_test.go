package main

import (
	"strings"
	"sync"
	"testing"
	"time"

	"clobbernvm/internal/memcache"
)

// The benchmark's self-tests: each deliberately broken variant must be
// convicted by the figure or check it is meant to move. Run them with
//
//	cd perfbench && go test .
//
// They drive the real mc-hot-read workload for a short run each.

const selfTestSeconds = 1.5

func run(t *testing.T, trace bool, h hooks) *report {
	t.Helper()
	r, err := runWorkload(config{workload: "mc-hot-read", seed: 7, seconds: selfTestSeconds, trace: trace, hooks: h})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// spinBackend burns 20 µs of CPU in every Backend data call, outside the
// engine: a slower cache layer.
type spinBackend struct{ memcache.Backend }

const spinFor = 20 * time.Microsecond

func spin() {
	for start := time.Now(); time.Since(start) < spinFor; {
	}
}

func (b spinBackend) SetFlags(slot int, key, value []byte, flags uint32) error {
	spin()
	return b.Backend.SetFlags(slot, key, value, flags)
}

func (b spinBackend) GetWithCAS(slot int, key []byte) ([]byte, uint32, uint64, bool, error) {
	spin()
	return b.Backend.GetWithCAS(slot, key)
}

func (b spinBackend) Delete(slot int, key []byte) (bool, error) {
	spin()
	return b.Backend.Delete(slot, key)
}

func TestSpinningBackendRaisesCacheSelfTimeOnly(t *testing.T) {
	withSpin := hooks{backend: func(b memcache.Backend) memcache.Backend { return spinBackend{b} }}
	base, slow := run(t, false, hooks{}), run(t, false, withSpin)
	baseT, slowT := run(t, true, hooks{}), run(t, true, withSpin)
	for _, r := range []*report{base, baseT} {
		if !r.correct {
			t.Fatalf("a run failed its correctness checks: %v", r.violations)
		}
	}
	// The spinning server takes both CPUs from the generator often enough
	// to make its open-loop schedule late, which invalidates the run's
	// open-loop figures; every reply must still be right, and every other
	// check must pass.
	for _, r := range []*report{slow, slowT} {
		for _, v := range r.violations {
			if !strings.HasPrefix(v, "INVALID: generator late") {
				t.Fatalf("a spinning run failed a check other than generator lateness: %v", r.violations)
			}
		}
		if r.failed != 0 {
			t.Fatalf("a spinning run had %d failed ops", r.failed)
		}
	}
	const us = float64(spinFor / time.Microsecond)
	if d := slow.metrics["p50_us"] - base.metrics["p50_us"]; d < us/2 {
		t.Errorf("p50_us rose by %.1f us under a %g us spin, want at least %g", d, us, us/2)
	}
	if d := slowT.metrics["cache.self_us_p50"] - baseT.metrics["cache.self_us_p50"]; d < 0.75*us {
		t.Errorf("cache.self_us_p50 rose by %.1f us under a %g us spin, want at least %g", d, us, 0.75*us)
	}
	// Other layers may slow a little, since the spin also takes CPU from
	// them on a small machine, but none may absorb the spin itself.
	for _, m := range []string{"server.self_us_p50", "clobber.self_us_p50", "clobber.runro_us_p50", "pds.body_us_p50"} {
		if d := slowT.metrics[m] - baseT.metrics[m]; d > 0.75*us {
			t.Errorf("%s rose by %.1f us under a %g us spin: the spin sits in the cache layer, not there", m, d, us)
		}
	}
}

// staleBackend answers every get of a key with the first value it ever
// returned for that key, however the key has been written since.
type staleBackend struct {
	memcache.Backend
	mu    sync.Mutex
	first map[string][]byte
}

func (b *staleBackend) GetWithCAS(slot int, key []byte) ([]byte, uint32, uint64, bool, error) {
	v, f, c, ok, err := b.Backend.GetWithCAS(slot, key)
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, seen := b.first[string(key)]; seen {
		return old, f, c, true, err
	}
	if ok {
		b.first[string(key)] = v
	}
	return v, f, c, ok, err
}

func TestStaleBackendFailsCorrectness(t *testing.T) {
	r := run(t, false, hooks{backend: func(b memcache.Backend) memcache.Backend {
		return &staleBackend{Backend: b, first: map[string][]byte{}}
	}})
	if r.correct || r.failed == 0 {
		t.Fatalf("a backend serving stale values passed: correct=%v failed=%d", r.correct, r.failed)
	}
	if code := r.finish(); code == 0 {
		t.Fatalf("exit code 0 for a run with %d failed ops", r.failed)
	}
	found := false
	for _, v := range r.violations {
		found = found || strings.Contains(v, "overwritten before the get was sent")
	}
	if !found {
		t.Errorf("no staleness violation among %q", r.violations)
	}
}

func TestLateGeneratorMarksRunInvalid(t *testing.T) {
	r := run(t, false, hooks{genDelay: 2 * time.Millisecond})
	if r.correct {
		t.Fatal("a generator 2 ms late per batch produced a valid run")
	}
	found := false
	for _, v := range r.violations {
		found = found || strings.HasPrefix(v, "INVALID: generator late")
	}
	if !found {
		t.Errorf("no lateness verdict among %q", r.violations)
	}
}
