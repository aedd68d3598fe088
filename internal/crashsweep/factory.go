// Package crashsweep implements exhaustive persist-point fault injection:
// run a workload once to count persist points (stores, flushes, fences),
// then re-run it once per point with a crash scheduled exactly there,
// recover, and audit the surviving structure against a volatile model. A
// sweep that passes proves every single persistence-ordering window in the
// workload is crash-consistent — the strongest form of the paper's §5.6
// recovery validation this simulator can express.
package crashsweep

import (
	"fmt"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/roster"
)

// EngineSpec is a roster engine bound to the sizing a harness creates it
// at. Tests build specs by hand to sweep deliberately broken engines.
type EngineSpec struct {
	Name   string
	Style  roster.Style
	Create func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error)
	Attach func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error)
}

// sweepSlots keeps per-slot log footprints small: sweeps restore the whole
// pool image per persist point, so pool (and therefore slot) size is the
// dominant per-point cost.
const sweepSlots = 2

// Specs returns the engines the sweep covers, at the sweep sizing: the
// failure-atomicity engines, their -line variants and the iDO and JUSTDO
// meters. The figure-only clobber ablations are left out.
func Specs() []EngineSpec {
	var out []EngineSpec
	for _, e := range roster.All() {
		if e.Style != roster.StyleAblation {
			out = append(out, bind(e, sweepSlots, 1<<20))
		}
	}
	return out
}

// EngineByName returns the roster engine name at the sweep sizing.
func EngineByName(name string) (EngineSpec, error) {
	return EngineSized(name, sweepSlots, 1<<20)
}

// EngineSized returns the roster engine name with explicit slot count and
// data-log capacity. Harnesses that restore or snapshot whole pool images
// per crash point (the sweep, proptest, chaos) keep the alloc and free logs
// at 128 entries and the v_log at 1 KiB so each iteration stays cheap.
func EngineSized(name string, slots int, dataLogCap uint64) (EngineSpec, error) {
	e, err := roster.Lookup(name)
	if err != nil {
		return EngineSpec{}, fmt.Errorf("crashsweep: %w", err)
	}
	return bind(e, slots, dataLogCap), nil
}

func bind(e roster.Engine, slots int, dataLogCap uint64) EngineSpec {
	sz := roster.Sizing{Slots: slots, DataLogCap: dataLogCap, AddrLogCap: 128, ArgsCap: 1024}
	return EngineSpec{
		Name: e.Name, Style: e.Style, Attach: e.Attach,
		Create: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) { return e.Create(p, a, sz) },
	}
}

// StructureKinds lists the structures OpenStructure accepts on every engine.
// The lock-free hashmap is opened by name too but stays off this list: its
// persistence protocol is engine-independent (it only needs the allocator),
// so sweeping it across every engine would re-run identical cells; its sweep
// and proptest cells name it explicitly on the clobber variants.
func StructureKinds() []string {
	return []string{"hashmap", "skiplist", "rbtree", "bptree", "avltree", "list"}
}

// OpenStructure opens (creating if absent) the named structure anchored at
// rootSlot.
func OpenStructure(kind string, eng pds.Engine, rootSlot int) (pds.Store, error) {
	switch kind {
	case "hashmap":
		return pds.NewHashMap(eng, rootSlot)
	case "skiplist":
		return pds.NewSkipList(eng, rootSlot)
	case "rbtree":
		return pds.NewRBTree(eng, rootSlot)
	case "bptree":
		return pds.NewBPTree(eng, rootSlot)
	case "avltree":
		return pds.NewAVLTree(eng, rootSlot)
	case "list":
		return pds.NewList(eng, rootSlot)
	case "lfhashmap":
		return pds.NewLFHashMap(eng, rootSlot)
	}
	return nil, fmt.Errorf("crashsweep: unknown structure %q (want %v)", kind, StructureKinds())
}
