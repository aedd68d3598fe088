package harness

import "testing"

func TestExtYCSBMixesShape(t *testing.T) {
	tabs := repeatFig(t, ExtYCSBMixes, tinyScale)
	for _, tab := range tabs {
		if len(tab.Rows) != 2*3*5 { // 2 structures x 3 engines x A/B/C + RMW mixes
			t.Fatalf("rows = %d", len(tab.Rows))
		}
		// Only the redo engine pays read interposition.
		rmwRows := 0
		for _, row := range tab.Rows {
			rc := cellF(t, tab, row, "read_checks_per_op")
			switch cell(t, tab, row, "engine") {
			case "mnemosyne":
				switch cell(t, tab, row, "workload") {
				case "c":
					if rc == 0 {
						t.Error("mnemosyne read-only workload paid no read checks")
					}
				case "a-rmw", "b-rmw":
					rmwRows++
					if rc == 0 {
						t.Error("mnemosyne RMW workload paid no read checks")
					}
				}
			default:
				if rc != 0 {
					t.Errorf("%s paid read checks (%v)", cell(t, tab, row, "engine"), rc)
				}
			}
		}
		if rmwRows != 2*2 {
			t.Errorf("rmw mnemosyne rows = %d, want 4", rmwRows)
		}
	}
	// On the read-only workload, clobber must beat mnemosyne (no read path).
	for _, st := range []string{"hashmap", "rbtree"} {
		cl := best(t, tabs, map[string]string{"engine": "clobber", "structure": st, "workload": "c"}, "ops_per_sec", true)
		mn := best(t, tabs, map[string]string{"engine": "mnemosyne", "structure": st, "workload": "c"}, "ops_per_sec", true)
		if cl < mn {
			t.Errorf("%s workload C: clobber slower than mnemosyne (%.0f vs %.0f ops/s)", st, cl, mn)
		}
	}
}

func TestExtFenceAblationShape(t *testing.T) {
	tab, err := ExtFenceAblation(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Clobber wins at every point of the sweep: from log volume (free
	// fences) to fence count (expensive fences). Timing noise on a shared
	// host can dent single points, so require a modest floor.
	for _, row := range tab.Rows {
		if sp := cellF(t, tab, row, "speedup"); sp < 0.8 {
			t.Errorf("fence=%s ns: clobber clearly slower than pmdk (%.2f)",
				cell(t, tab, row, "fence_ns"), sp)
		}
		cf := cellF(t, tab, row, "clobber_fences_per_tx")
		pf := cellF(t, tab, row, "pmdk_fences_per_tx")
		if cf >= pf {
			t.Errorf("fence=%s ns: clobber fences/tx (%v) not < pmdk (%v)",
				cell(t, tab, row, "fence_ns"), cf, pf)
		}
	}
}
