package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// hashResults writes r's JSON encoding into h with the clock skip's
// diagnostics zeroed: they are the only fields the skip may move, so a
// pin over the rest holds with the skip on, off, engaged or bypassed.
func hashResults(t *testing.T, h hash.Hash, r stats.Results) {
	t.Helper()
	r.SkippedCycles, r.SkipEvents, r.LongestSkip = 0, 0, 0
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(raw)
}

// TestVirtualRegistersPinned pins the result bytes of virtual-register
// runs (Figure 14's mode) over a grid of tag counts, physical register
// counts and memory latencies, each on five workloads with the clock
// skip on and off. The hashes were computed on the tree in which
// virtual-register runs kept raw producer links, bypassed the record
// pool and the arena chassis, and ran cycle by cycle; moving them onto
// the shared machinery must reproduce every byte. Physical register
// counts of 65 and 70 leave one and six registers beyond the
// architectural state: only there do writebacks defer their binds (at
// 96 and above none does on these workloads), so those columns cover
// the deferred-bind queue, including binds squashed while queued. The
// rollback-heavy mix adds an exception at position 5000.
func TestVirtualRegistersPinned(t *testing.T) {
	want := map[string]string{
		"checkpoint-128/2048/mem100/tags64/phys65":     "86d3f5a5593eb6a60b2c1e9d31c1e5d3e29aa0a28b8092c5dfb6cb24f0fce3e6",
		"checkpoint-128/2048/mem100/tags64/phys70":     "703843f030a51c0c6b5028c9300a9bebcb6da855a2a0f335be4f2e1d4233f038",
		"checkpoint-128/2048/mem100/tags64/phys96":     "58e52dce74db0db3cd0fe0a6b4a2fbbe792df58873dcf2b6901cc67927b46aa3",
		"checkpoint-128/2048/mem100/tags64/phys256":    "58e52dce74db0db3cd0fe0a6b4a2fbbe792df58873dcf2b6901cc67927b46aa3",
		"checkpoint-128/2048/mem100/tags512/phys65":    "52fbbb798de3a9e2cd9643d9dd00b4ae60c4f9ebab6227e38ffd3ebe1ba97a84",
		"checkpoint-128/2048/mem100/tags512/phys70":    "902767d88040de0526a1f710e9f6ccfab4a7854a6dc52dfa183ba1dc1c5776ef",
		"checkpoint-128/2048/mem100/tags512/phys96":    "902767d88040de0526a1f710e9f6ccfab4a7854a6dc52dfa183ba1dc1c5776ef",
		"checkpoint-128/2048/mem100/tags512/phys256":   "902767d88040de0526a1f710e9f6ccfab4a7854a6dc52dfa183ba1dc1c5776ef",
		"checkpoint-128/2048/mem100/tags2048/phys65":   "04bb8e3ac794428b91e962af19b2b70f4975229b49185467a0ba85c7e144baae",
		"checkpoint-128/2048/mem100/tags2048/phys70":   "9199e7a2f40a19055000638d4fa5f5a142871303e87668225b048639adf22b85",
		"checkpoint-128/2048/mem100/tags2048/phys96":   "9199e7a2f40a19055000638d4fa5f5a142871303e87668225b048639adf22b85",
		"checkpoint-128/2048/mem100/tags2048/phys256":  "9199e7a2f40a19055000638d4fa5f5a142871303e87668225b048639adf22b85",
		"checkpoint-128/2048/mem1000/tags64/phys65":    "341af4dc773744f7a0bad9634cd36d68f4d21c0fca6fff804d08c40f954b2de7",
		"checkpoint-128/2048/mem1000/tags64/phys70":    "e7f2375bfe0f7358cf280d2daac828fa6a514e15ec516b4e96d6ab8533fb6d33",
		"checkpoint-128/2048/mem1000/tags64/phys96":    "4e056ef6019ac41ed97ff50acac60e6873f13ed032fa3561314c947385c7783a",
		"checkpoint-128/2048/mem1000/tags64/phys256":   "4e056ef6019ac41ed97ff50acac60e6873f13ed032fa3561314c947385c7783a",
		"checkpoint-128/2048/mem1000/tags512/phys65":   "630a57705cd318f7971d036aa74dd18c71714a881d53275bab26a9d85cc357fe",
		"checkpoint-128/2048/mem1000/tags512/phys70":   "7730b4e5a443dee89c1e749509f35840dc36e002d05983a792980e8c9685b283",
		"checkpoint-128/2048/mem1000/tags512/phys96":   "1af83dfdff2cd922477b4b13d0162dffd40e84d6818f08e6e5382d822469c7c2",
		"checkpoint-128/2048/mem1000/tags512/phys256":  "1af83dfdff2cd922477b4b13d0162dffd40e84d6818f08e6e5382d822469c7c2",
		"checkpoint-128/2048/mem1000/tags2048/phys65":  "4e6115b9759f2e03820a3632ec271c485a2bac1820096cf5b78716a19f169610",
		"checkpoint-128/2048/mem1000/tags2048/phys70":  "c74f11c1bf799c7f509d6e38f4b27fbb1a6b28eebd2c8847f6c71504c23b8f75",
		"checkpoint-128/2048/mem1000/tags2048/phys96":  "c174cb3ebd1a7384e47882dcbeabcfd441c3fa8087648288f13197311811bfc6",
		"checkpoint-128/2048/mem1000/tags2048/phys256": "c174cb3ebd1a7384e47882dcbeabcfd441c3fa8087648288f13197311811bfc6",
		"adaptive-32/512/tags256/phys66":               "a8751957be16aac006d1f589113ef0e157a0189e0182c224816d255fba07e3cb",
		"adaptive-32/512/tags256/phys128":              "95e76165809c34168109b12a82533883048112227d79b53b3f2ee90108fa7f14",
	}
	type vcfg struct {
		name string
		cfg  config.Config
	}
	var cfgs []vcfg
	for _, lat := range []int{100, 1000} {
		for _, tags := range []int{64, 512, 2048} {
			for _, phys := range []int{65, 70, 96, 256} {
				cfg := vregConfig(config.CheckpointDefault(128, 2048), tags, phys)
				cfg.MemoryLatency = lat
				cfgs = append(cfgs, vcfg{fmt.Sprintf("checkpoint-128/2048/mem%d/tags%d/phys%d", lat, tags, phys), cfg})
			}
		}
	}
	for _, phys := range []int{66, 128} {
		cfgs = append(cfgs, vcfg{fmt.Sprintf("adaptive-32/512/tags256/phys%d", phys),
			vregConfig(config.AdaptiveDefault(32, 512), 256, phys)})
	}

	const insts = 30000
	traces := []struct {
		name   string
		tr     *trace.Trace
		except int64 // trace position of an injected exception, or -1
	}{
		{"fpmix", trace.FPMix(trace.LenFor(insts), 42), -1},
		{"strided", trace.StridedStream(trace.LenFor(insts), 8), -1},
		{"blocked", trace.Blocked(trace.LenFor(insts)), -1},
		{"rollback-heavy", rollbackHeavyTrace(60000), 5000},
		{"isort", programTrace(t, "isort", 400), -1},
	}
	for _, vc := range cfgs {
		t.Run(vc.name, func(t *testing.T) {
			h := sha256.New()
			for _, tc := range traces {
				var except []int64
				if tc.except >= 0 {
					except = []int64{tc.except}
				}
				tick, skip, _ := runAB(t, vc.cfg, tc.tr, RunOptions{MaxInsts: insts}, except)
				if !tick.Equal(skip) {
					t.Fatalf("%s: skip run diverged from cycle-by-cycle run:\ntick: %+v\nskip: %+v", tc.name, tick, skip)
				}
				hashResults(t, h, tick)
				hashResults(t, h, skip)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[vc.name] {
				t.Errorf("result hash %s, want %s", got, want[vc.name])
			}
		})
	}
}
