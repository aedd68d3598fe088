// Package roster is the one table of engines: each failure-atomicity
// engine, its -line variant, the clobber ablations of §5.3/§5.9 and the
// iDO/JUSTDO meters, by name, with how to create it at a sizing and how to
// reattach it after a restart. The crash sweep, the figure harness, the
// torture and memcached commands and the conformance tests all read it.
package roster

import (
	"fmt"
	"strings"

	"clobbernvm/internal/atlas"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/ido"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/redolog"
	"clobbernvm/internal/slotcore"
	"clobbernvm/internal/undolog"
)

// Style classifies what a harness can check about an engine.
type Style int

const (
	// StyleAtomic engines promise failure atomicity: sweeps audit
	// all-or-nothing structure state after recovery.
	StyleAtomic Style = iota
	// StyleAblation engines are the clobber variants the figures measure
	// (Fig 7's v_log-only, clobber_log-only and No-log points, Fig 13's
	// conservative identification). Some are not failure-atomic by
	// design, so sweeps leave them out.
	StyleAblation
	// StyleMeter engines (ido, justdo) are measurement artifacts with no
	// recovery machinery.
	StyleMeter
)

// Sizing sizes an engine at creation. Zero fields take each engine's
// defaults. Attach needs none of it: sizes come from the pool.
type Sizing struct {
	Slots      int
	DataLogCap uint64
	// AddrLogCap bounds each of the per-transaction alloc and free logs.
	AddrLogCap int
	// ArgsCap is the clobber engines' per-slot v_log capacity.
	ArgsCap uint64
	// LineLog formats the data logs with the write-combined line writer.
	LineLog bool
}

// Engine is one roster entry.
type Engine struct {
	Name   string
	Style  Style
	Create func(p *nvm.Pool, a *pmem.Allocator, sz Sizing) (pds.Engine, error)
	Attach func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error)
}

var all = []Engine{
	clobberEngine("clobber", StyleAtomic, false, clobber.Options{}),
	kernelEngine("pmdk", false, undolog.Create, undolog.Attach),
	kernelEngine("mnemosyne", false, redolog.Create, redolog.Attach),
	kernelEngine("atlas", false, atlas.Create, atlas.Attach),
	// Line-writer variants: the same engines with the data log in
	// write-combined line mode. Attach needs no flag — the log magic
	// records the mode.
	clobberEngine("clobber-line", StyleAtomic, true, clobber.Options{}),
	kernelEngine("pmdk-line", true, undolog.Create, undolog.Attach),
	kernelEngine("mnemosyne-line", true, redolog.Create, redolog.Attach),
	kernelEngine("atlas-line", true, atlas.Create, atlas.Attach),
	clobberEngine("clobber-conservative", StyleAblation, false, clobber.Options{Conservative: true}),
	clobberEngine("clobber-vlog", StyleAblation, false, clobber.Options{DisableClobberLog: true}),
	clobberEngine("clobber-clobberlog", StyleAblation, false, clobber.Options{DisableVLog: true}),
	clobberEngine("nolog", StyleAblation, false, clobber.Options{DisableVLog: true, DisableClobberLog: true}),
	meterEngine("ido", ido.New),
	meterEngine("justdo", ido.NewJustDo),
}

// All returns every engine in roster order.
func All() []Engine { return append([]Engine(nil), all...) }

// Lookup returns the engine called name, or an error listing the roster.
func Lookup(name string) (Engine, error) {
	names := make([]string, len(all))
	for i, e := range all {
		if e.Name == name {
			return e, nil
		}
		names[i] = e.Name
	}
	return Engine{}, fmt.Errorf("unknown engine %q (want %s)", name, strings.Join(names, "|"))
}

// clobberEngine is a clobber engine with the behaviour flags of o, which
// Attach restates (they are volatile).
func clobberEngine(name string, style Style, line bool, o clobber.Options) Engine {
	return Engine{
		Name: name, Style: style,
		Create: func(p *nvm.Pool, a *pmem.Allocator, sz Sizing) (pds.Engine, error) {
			o := o
			o.Slots, o.DataLogCap, o.ArgsCap = sz.Slots, sz.DataLogCap, sz.ArgsCap
			o.AllocLogCap, o.FreeLogCap, o.LineLog = sz.AddrLogCap, sz.AddrLogCap, line || sz.LineLog
			return clobber.Create(p, a, o)
		},
		Attach: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			return clobber.Attach(p, a, o)
		},
	}
}

// kernelEngine is an engine configured by slot sizes alone.
func kernelEngine[E pds.Engine](name string, line bool, create, attach func(*nvm.Pool, *pmem.Allocator, slotcore.Options) (E, error)) Engine {
	return Engine{
		Name: name, Style: StyleAtomic,
		Create: func(p *nvm.Pool, a *pmem.Allocator, sz Sizing) (pds.Engine, error) {
			return create(p, a, slotcore.Options{Slots: sz.Slots, DataLogCap: sz.DataLogCap,
				AllocLogCap: sz.AddrLogCap, FreeLogCap: sz.AddrLogCap, LineLog: line || sz.LineLog})
		},
		Attach: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			return attach(p, a, slotcore.Options{})
		},
	}
}

// meterEngine is a stateless meter: creating and attaching are the same.
func meterEngine[E pds.Engine](name string, mk func(*nvm.Pool, *pmem.Allocator) E) Engine {
	open := func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) { return mk(p, a), nil }
	return Engine{
		Name: name, Style: StyleMeter,
		Create: func(p *nvm.Pool, a *pmem.Allocator, _ Sizing) (pds.Engine, error) { return open(p, a) },
		Attach: open,
	}
}
