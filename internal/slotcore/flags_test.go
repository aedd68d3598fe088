package slotcore

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// val reads a line's packed value without mutating the table.
func (t *FlagTable) val(line uint64) uint32 {
	k := line + 1
	i := mixHash(k) & t.mask
	for {
		if t.gen[i] != t.cur {
			return 0
		}
		if t.keys[i] == k {
			return t.vals[i]
		}
		i = (i + 1) & t.mask
	}
}

func TestFlagTableBasic(t *testing.T) {
	ft := NewFlagTable()
	if got := ft.val(42); got != 0 {
		t.Fatalf("empty val = %#x", got)
	}
	ft.MarkInput(42, 0b0001, false)
	if got := ft.val(42); got != 0b0001 {
		t.Fatalf("val after markInput = %#x", got)
	}
	if old := ft.MarkStored(42, 0b0011); old != 0b0001 {
		t.Fatalf("markStored returned %#x", old)
	}
	if got := ft.val(42); got != 0b0011<<StoredShift|0b0001 {
		t.Fatalf("val = %#x", got)
	}
	// Refined input marking skips stored words.
	ft.MarkInput(42, 0b0110, false)
	if got := ft.val(42); got != 0b0011<<StoredShift|0b0101 {
		t.Fatalf("val after refined markInput = %#x", got)
	}
	// Conservative marks them anyway.
	ft.MarkInput(42, 0b0010, true)
	if got := ft.val(42); got != 0b0011<<StoredShift|0b0111 {
		t.Fatalf("val after conservative markInput = %#x", got)
	}
	ft.MarkLogged(42, 0b0100)
	if got := ft.val(42); got != 0b0100<<LoggedShift|0b0011<<StoredShift|0b0111 {
		t.Fatalf("val after markLogged = %#x", got)
	}
}

func TestFlagTableZeroKey(t *testing.T) {
	// Line index 0 must be storable (keys are offset by one internally).
	ft := NewFlagTable()
	ft.MarkLogged(0, 0b1000)
	if got := ft.val(0); got != 0b1000<<LoggedShift {
		t.Fatalf("val(0) = %#x", got)
	}
}

func TestFlagTableGrowth(t *testing.T) {
	ft := NewFlagTable()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		ft.MarkInput(i*3, uint32(1<<(i%8)), true)
	}
	for i := uint64(0); i < n; i++ {
		if got := ft.val(i * 3); got != uint32(1<<(i%8)) {
			t.Fatalf("after growth val(%d) = %#x, want %#x", i*3, got, 1<<(i%8))
		}
	}
	if got := ft.val(1); got != 0 {
		t.Fatalf("absent key = %#x", got)
	}
}

func TestFlagTableMatchesMapReference(t *testing.T) {
	f := func(ops []uint16) bool {
		ft := NewFlagTable()
		type ref struct{ input, stored, logged uint32 }
		refs := map[uint64]*ref{}
		at := func(l uint64) *ref {
			r := refs[l]
			if r == nil {
				r = &ref{}
				refs[l] = r
			}
			return r
		}
		for _, op := range ops {
			l := uint64(op >> 5)
			wmask := uint32(1 << (op % 8))
			r := at(l)
			switch op % 3 {
			case 0: // refined load
				ft.MarkInput(l, wmask, false)
				r.input |= wmask &^ r.stored
			case 1: // store
				old := ft.MarkStored(l, wmask)
				want := r.logged<<LoggedShift | r.stored<<StoredShift | r.input
				if old != want {
					return false
				}
				r.stored |= wmask
			case 2: // logged
				ft.MarkLogged(l, wmask)
				r.logged |= wmask
			}
		}
		for l, r := range refs {
			want := r.logged<<LoggedShift | r.stored<<StoredShift | r.input
			if ft.val(l) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFlagTableDirtyLineDedup(t *testing.T) {
	ft := NewFlagTable()
	rng := rand.New(rand.NewSource(1))
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		l := uint64(rng.Intn(600))
		ft.MarkStored(l, uint32(1<<rng.Intn(8)))
		seen[l] = true
	}
	if len(ft.Dirty) != len(seen) {
		t.Fatalf("dirty lines = %d, want %d (dedup broken)", len(ft.Dirty), len(seen))
	}
	got := map[uint64]bool{}
	for _, l := range ft.Dirty {
		if got[l] {
			t.Fatalf("line %d recorded twice", l)
		}
		got[l] = true
		if !seen[l] {
			t.Fatalf("phantom line %d", l)
		}
	}
}

func TestFlagTableReset(t *testing.T) {
	ft := NewFlagTable()
	for i := uint64(0); i < 1000; i++ {
		ft.MarkStored(i, 0xff)
	}
	ft.Reset()
	if len(ft.Dirty) != 0 || ft.n != 0 {
		t.Fatalf("reset left dirty=%d n=%d", len(ft.Dirty), ft.n)
	}
	for i := uint64(0); i < 1000; i++ {
		if got := ft.val(i); got != 0 {
			t.Fatalf("val(%d) = %#x after reset", i, got)
		}
	}
	// Table stays usable after reset.
	if old := ft.MarkStored(7, 0b1); old != 0 {
		t.Fatalf("markStored after reset returned %#x", old)
	}
}
