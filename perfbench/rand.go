package main

import (
	"math/rand"
)

// rng is the benchmark's seeded source: every input a workload generates
// comes from one, so the same seed gives the same inputs.
type rng struct{ r *rand.Rand }

func newRand(seed int64) *rng { return &rng{r: rand.New(rand.NewSource(seed))} }

func (g *rng) exp() float64         { return g.r.ExpFloat64() }
func (g *rng) float() float64       { return g.r.Float64() }
func (g *rng) intn(n int) int       { return g.r.Intn(n) }
func (g *rng) int63n(n int64) int64 { return g.r.Int63n(n) }

// zipf draws key indexes in [0, n) with P(k) proportional to 1/(k+1)^s,
// scattered over the keyspace so the hot keys are not all neighbours.
type zipf struct {
	z    *rand.Zipf
	perm []uint32
}

func newZipf(g *rng, s float64, n uint32) *zipf {
	perm := make([]uint32, n)
	for i, p := range g.r.Perm(int(n)) {
		perm[i] = uint32(p)
	}
	return &zipf{z: rand.NewZipf(g.r, s, 1, uint64(n-1)), perm: perm}
}

func (z *zipf) next() uint32 { return z.perm[z.z.Uint64()] }
