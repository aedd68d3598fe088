package enginetest

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"clobbernvm/internal/crashsweep"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/roster"
	"clobbernvm/internal/txn"
)

// goldenEngines lists every roster engine but the meters — the
// failure-atomic engines, their -line variants and the clobber ablations —
// at the sweep sizing (two slots, 1 MiB data logs, 128-entry alloc/free
// logs, 1 KiB v_log).
func goldenEngines() []crashsweep.EngineSpec {
	var out []crashsweep.EngineSpec
	for _, e := range roster.All() {
		if e.Style != roster.StyleMeter {
			s, _ := crashsweep.EngineSized(e.Name, 2, 1<<20)
			out = append(out, s)
		}
	}
	return out
}

// goldenProfiles pins each engine's persistence profile on a fixed workload:
// pool persist counters, persist points per kind, engine log counters before
// the crash and after recovery, the recovery report, and an FNV-64a hash of
// the durable image after recovery. The values were recorded before the
// engines were rebuilt over the shared slot kernel; any difference means an
// engine's persistent behaviour changed.
var goldenProfiles = map[string]string{
	"clobber/hashmap":              "pp=831/9528/523/10882 eng={Committed:48 Recovered:0 LogEntries:47 LogBytes:1880 VLogEntries:48 VLogBytes:3957 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:1 Recovered:1 LogEntries:1 LogBytes:40 VLogEntries:1 VLogBytes:72 ReadChecks:0 Quarantined:0} stores=862 bytes=575936 flushes=9561 flushopts=8620 fences=542 lines=385 image=0x3b1ecd687a82d5b4",
	"clobber/list":                 "pp=831/1347/524/2702 eng={Committed:48 Recovered:0 LogEntries:47 LogBytes:1880 VLogEntries:48 VLogBytes:3813 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:1 Recovered:1 LogEntries:1 LogBytes:40 VLogEntries:1 VLogBytes:69 ReadChecks:0 Quarantined:0} stores=862 bytes=51704 flushes=1379 flushopts=437 fences=543 lines=385 image=0xe79e2ddebed9829b",
	"clobber/rbtree":               "pp=1121/1547/603/3271 eng={Committed:48 Recovered:0 LogEntries:126 LogBytes:5040 VLogEntries:48 VLogBytes:3909 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:1 Recovered:1 LogEntries:9 LogBytes:360 VLogEntries:1 VLogBytes:71 ReadChecks:0 Quarantined:0} stores=1175 bytes=57688 flushes=1601 flushopts=659 fences=630 lines=385 image=0x1d2a84baa2403757",
	"pmdk/hashmap":                 "pp=1092/17876/689/19657 eng={Committed:48 Recovered:0 LogEntries:213 LogBytes:534844 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=1110 bytes=1101439 flushes=17892 flushopts=16913 fences=700 lines=385 image=0x4e66978c8775892a",
	"pmdk/list":                    "pp=1091/1502/689/3282 eng={Committed:48 Recovered:0 LogEntries:212 LogBytes:10524 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=1109 bytes=52879 flushes=1518 flushopts=538 fences=700 lines=385 image=0x3db19a7b3994bf0f",
	"pmdk/rbtree":                  "pp=1482/1871/869/4222 eng={Committed:48 Recovered:0 LogEntries:392 LogBytes:17724 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=1500 bytes=63207 flushes=1887 flushopts=907 fences=880 lines=385 image=0x6195fd496aadec85",
	"mnemosyne/hashmap":            "pp=824/17713/524/19061 eng={Committed:48 Recovered:0 LogEntries:110 LogBytes:531696 VLogEntries:0 VLogBytes:0 ReadChecks:294 Quarantined:0} fired=true rec={Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=843 bytes=1096668 flushes=17731 flushopts=16697 fences=539 lines=385 image=0xc39e1c4044c9e4dd",
	"mnemosyne/list":               "pp=825/1334/525/2684 eng={Committed:48 Recovered:0 LogEntries:110 LogBytes:7408 VLogEntries:0 VLogBytes:0 ReadChecks:2874 Quarantined:0} fired=true rec={Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=844 bytes=48148 flushes=1352 flushopts=317 fences=540 lines=385 image=0x81cc84638f6a1c2d",
	"mnemosyne/rbtree":             "pp=903/1491/525/2919 eng={Committed:48 Recovered:0 LogEntries:188 LogBytes:11344 VLogEntries:0 VLogBytes:0 ReadChecks:1421 Quarantined:0} fired=true rec={Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=922 bytes=53524 flushes=1509 flushopts=474 fences=540 lines=385 image=0xb1f1c789b9717a70",
	"atlas/hashmap":                "pp=1239/17938/739/19916 eng={Committed:48 Recovered:0 LogEntries:213 LogBytes:534844 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=1257 bytes=1102615 flushes=17954 flushopts=16913 fences=750 lines=385 image=0x170c8b321397d69c",
	"atlas/list":                   "pp=1238/1564/739/3541 eng={Committed:48 Recovered:0 LogEntries:212 LogBytes:10524 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=1256 bytes=54055 flushes=1580 flushopts=538 fences=750 lines=385 image=0x805e92e6e4f14df6",
	"atlas/rbtree":                 "pp=1660/1983/950/4593 eng={Committed:48 Recovered:0 LogEntries:423 LogBytes:18964 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=1678 bytes=65871 flushes=1999 flushopts=957 fences=961 lines=385 image=0x2981104e36715245",
	"clobber-line/hashmap":         "pp=831/9481/523/10835 eng={Committed:48 Recovered:0 LogEntries:47 LogBytes:752 VLogEntries:48 VLogBytes:3957 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:1 Recovered:1 LogEntries:1 LogBytes:16 VLogEntries:1 VLogBytes:72 ReadChecks:0 Quarantined:0} stores=862 bytes=576704 flushes=9513 flushopts=8572 fences=542 lines=433 image=0xfb318f463b875fb3",
	"clobber-line/list":            "pp=831/1300/524/2655 eng={Committed:48 Recovered:0 LogEntries:47 LogBytes:752 VLogEntries:48 VLogBytes:3813 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:1 Recovered:1 LogEntries:1 LogBytes:16 VLogEntries:1 VLogBytes:69 ReadChecks:0 Quarantined:0} stores=862 bytes=52472 flushes=1331 flushopts=389 fences=543 lines=433 image=0x6a34fa3e16e1af11",
	"clobber-line/rbtree":          "pp=1141/1478/603/3222 eng={Committed:48 Recovered:0 LogEntries:126 LogBytes:2016 VLogEntries:48 VLogBytes:3909 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:1 Recovered:1 LogEntries:9 LogBytes:144 VLogEntries:1 VLogBytes:71 ReadChecks:0 Quarantined:0} stores=1197 bytes=60920 flushes=1528 flushopts=586 fences=630 lines=536 image=0x71cb9341c36bc9df",
	"pmdk-line/hashmap":            "pp=10542/18964/689/30195 eng={Committed:48 Recovered:0 LogEntries:213 LogBytes:530064 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=10560 bytes=1181735 flushes=18979 flushopts=18000 fences=701 lines=10027 image=0xc9d3802f980cac20",
	"pmdk-line/list":               "pp=1178/1419/689/3286 eng={Committed:48 Recovered:0 LogEntries:212 LogBytes:5768 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=1196 bytes=58263 flushes=1434 flushopts=454 fences=701 lines=664 image=0xad06f9491fe34e7b",
	"pmdk-line/rbtree":             "pp=1618/1727/869/4214 eng={Committed:48 Recovered:0 LogEntries:392 LogBytes:8648 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=1636 bytes=73263 flushes=1742 flushopts=762 fences=881 lines=869 image=0xc8dda157c33fc0c9",
	"mnemosyne-line/hashmap":       "pp=10252/18835/524/29611 eng={Committed:48 Recovered:0 LogEntries:110 LogBytes:529056 VLogEntries:0 VLogBytes:0 ReadChecks:294 Quarantined:0} fired=true rec={Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=10271 bytes=1170684 flushes=18853 flushopts=17819 fences=539 lines=9855 image=0xd633ac4bb1b0bbc0",
	"mnemosyne-line/list":          "pp=890/1285/525/2700 eng={Committed:48 Recovered:0 LogEntries:110 LogBytes:4768 VLogEntries:0 VLogBytes:0 ReadChecks:2874 Quarantined:0} fired=true rec={Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=909 bytes=47276 flushes=1303 flushopts=268 fences=540 lines=493 image=0x9fd082104dc0bf58",
	"mnemosyne-line/rbtree":        "pp=1004/1419/525/2948 eng={Committed:48 Recovered:0 LogEntries:188 LogBytes:6832 VLogEntries:0 VLogBytes:0 ReadChecks:1421 Quarantined:0} fired=true rec={Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=1023 bytes=50908 flushes=1437 flushopts=402 fences=540 lines=527 image=0x85c14d4164f0855d",
	"atlas-line/hashmap":           "pp=10689/19026/739/30454 eng={Committed:48 Recovered:0 LogEntries:213 LogBytes:530064 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=10707 bytes=1182911 flushes=19041 flushopts=18000 fences=751 lines=10027 image=0xdf77567675e92339",
	"atlas-line/list":              "pp=1325/1481/739/3545 eng={Committed:48 Recovered:0 LogEntries:212 LogBytes:5768 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=1343 bytes=59439 flushes=1496 flushopts=454 fences=751 lines=664 image=0xbf448afd3a3e7b16",
	"atlas-line/rbtree":            "pp=1806/1830/950/4586 eng={Committed:48 Recovered:0 LogEntries:423 LogBytes:9144 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=1824 bytes=76783 flushes=1845 flushopts=803 fences=962 lines=905 image=0xaf741e948913a99a",
	"clobber-conservative/hashmap": "pp=831/9528/523/10882 eng={Committed:48 Recovered:0 LogEntries:47 LogBytes:1880 VLogEntries:48 VLogBytes:3957 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:1 Recovered:1 LogEntries:1 LogBytes:40 VLogEntries:1 VLogBytes:72 ReadChecks:0 Quarantined:0} stores=862 bytes=575936 flushes=9561 flushopts=8620 fences=542 lines=385 image=0x3b1ecd687a82d5b4",
	"clobber-conservative/list":    "pp=831/1347/524/2702 eng={Committed:48 Recovered:0 LogEntries:47 LogBytes:1880 VLogEntries:48 VLogBytes:3813 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:1 Recovered:1 LogEntries:1 LogBytes:40 VLogEntries:1 VLogBytes:69 ReadChecks:0 Quarantined:0} stores=862 bytes=51704 flushes=1379 flushopts=437 fences=543 lines=385 image=0xe79e2ddebed9829b",
	"clobber-conservative/rbtree":  "pp=1144/1584/626/3354 eng={Committed:48 Recovered:0 LogEntries:149 LogBytes:5960 VLogEntries:48 VLogBytes:3909 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:1 Recovered:1 LogEntries:9 LogBytes:360 VLogEntries:1 VLogBytes:71 ReadChecks:0 Quarantined:0} stores=1198 bytes=58792 flushes=1638 flushopts=696 fences=653 lines=385 image=0xfc841d654abb7821",
	"clobber-vlog/hashmap":         "pp=784/9434/476/10694 eng={Committed:48 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:48 VLogBytes:3957 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:1 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:1 VLogBytes:72 ReadChecks:0 Quarantined:0} stores=814 bytes=573632 flushes=9465 flushopts=8524 fences=494 lines=385 image=0xfc9373e8d8f00586",
	"clobber-vlog/list":            "pp=784/1253/477/2514 eng={Committed:48 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:48 VLogBytes:3813 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:1 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:1 VLogBytes:69 ReadChecks:0 Quarantined:0} stores=814 bytes=49400 flushes=1283 flushopts=341 fences=495 lines=385 image=0x37fd635f11b7c8c1",
	"clobber-vlog/rbtree":          "pp=995/1332/477/2804 eng={Committed:48 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:48 VLogBytes:3909 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:1 Recovered:1 LogEntries:0 LogBytes:0 VLogEntries:1 VLogBytes:71 ReadChecks:0 Quarantined:0} stores=1040 bytes=51208 flushes=1371 flushopts=429 fences=495 lines=385 image=0x8b99899729e42eaa",
	"clobber-clobberlog/hashmap":   "pp=647/9213/401/10261 eng={Committed:48 Recovered:0 LogEntries:47 LogBytes:1880 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=659 bytes=563609 flushes=9220 flushopts=8427 fences=408 lines=385 image=0x1bdbda16e9950a91",
	"clobber-clobberlog/list":      "pp=647/1032/402/2081 eng={Committed:48 Recovered:0 LogEntries:47 LogBytes:1880 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=659 bytes=39377 flushes=1039 flushopts=245 fences=409 lines=385 image=0xa8d01ff846e1e88c",
	"clobber-clobberlog/rbtree":    "pp=937/1232/481/2650 eng={Committed:48 Recovered:0 LogEntries:126 LogBytes:5040 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=949 bytes=44857 flushes=1239 flushopts=445 fences=488 lines=385 image=0x9f4a6f93c2e287f5",
	"nolog/hashmap":                "pp=600/9119/354/10073 eng={Committed:48 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=612 bytes=561353 flushes=9126 flushopts=8333 fences=361 lines=385 image=0xe0d168bcf9ec034b",
	"nolog/list":                   "pp=600/938/355/1893 eng={Committed:48 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=612 bytes=37121 flushes=945 flushopts=151 fences=362 lines=385 image=0x38a4c83eee7bb746",
	"nolog/rbtree":                 "pp=811/1017/355/2183 eng={Committed:48 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} fired=true rec={Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 FreesResumed:0 Quarantined:0 Errors:[]} eng2={Committed:0 Recovered:0 LogEntries:0 LogBytes:0 VLogEntries:0 VLogBytes:0 ReadChecks:0 Quarantined:0} stores=823 bytes=38809 flushes=1024 flushopts=230 fences=362 lines=385 image=0xbe1f625f29e5f057",
}

// goldenProfile runs the golden workload on one engine × structure cell and
// renders its profile as one line.
func goldenProfile(t *testing.T, ge crashsweep.EngineSpec, structure string) string {
	t.Helper()
	pool := nvm.New(1<<24, nvm.WithSeed(7), nvm.WithEvictProbability(0.5))
	alloc, err := pmem.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ge.Create(pool, alloc)
	if err != nil {
		t.Fatal(err)
	}
	store, err := crashsweep.OpenStructure(structure, eng, 30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	val := func() []byte {
		v := make([]byte, 8+rng.Intn(120))
		rng.Read(v)
		return v
	}
	for i := 0; i < 60; i++ {
		k := []byte(fmt.Sprintf("k%02d", rng.Intn(24)))
		if rng.Intn(4) == 0 {
			if _, err := store.Delete(0, k); err != nil {
				t.Fatal(err)
			}
		} else if err := store.Insert(0, k, val()); err != nil {
			t.Fatal(err)
		}
	}
	pre := fmt.Sprintf("pp=%d/%d/%d/%d eng=%+v", pool.PersistPoints(nvm.CrashAtStore),
		pool.PersistPoints(nvm.CrashAtFlush), pool.PersistPoints(nvm.CrashAtFence),
		pool.PersistPoints(nvm.CrashAtAny), eng.Stats().Snapshot())

	// One crash at a fixed persist point of an insert, then recovery.
	pool.ScheduleCrashAt(nvm.CrashAtAny, 23)
	fired := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); !ok || !errors.Is(err, nvm.ErrCrash) {
					panic(r)
				}
				fired = true
			}
		}()
		_ = store.Insert(0, []byte("k99"), val())
	}()
	pool.ScheduleCrashAt(nvm.CrashAtAny, 0)
	pool.Crash()
	a2, err := pmem.Attach(pool)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ge.Attach(pool, a2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashsweep.OpenStructure(structure, e2, 30); err != nil {
		t.Fatal(err)
	}
	rep, err := e2.(txn.RecoveryReporter).RecoverReport()
	if err != nil {
		t.Fatal(err)
	}
	rep.Errors = nil
	ps := pool.Stats()
	h := fnv.New64a()
	h.Write(pool.Snapshot())
	return fmt.Sprintf("%s fired=%v rec=%+v eng2=%+v stores=%d bytes=%d flushes=%d flushopts=%d fences=%d lines=%d image=%#x",
		pre, fired, rep, e2.Stats().Snapshot(), ps.Stores, ps.BytesStored, ps.Flushes, ps.FlushOpts,
		ps.Fences, ps.LineStores, h.Sum64())
}

// TestPersistProfileGolden proves the engines' persistent behaviour is
// unchanged: every engine × structure cell must reproduce its recorded
// profile exactly.
func TestPersistProfileGolden(t *testing.T) {
	for _, ge := range goldenEngines() {
		for _, structure := range []string{"hashmap", "list", "rbtree"} {
			name := ge.Name + "/" + structure
			t.Run(name, func(t *testing.T) {
				got := goldenProfile(t, ge, structure)
				if want, ok := goldenProfiles[name]; !ok || got != want {
					t.Errorf("profile mismatch\n got: %q\nwant: %q", got, want)
				}
			})
		}
	}
}
