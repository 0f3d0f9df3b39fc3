package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/refgemm"
)

// loweringCase is one golden plan: a shape on a chip under one blocking,
// packing and fusion choice.
type loweringCase struct {
	name    string
	chip    *hw.Chip
	m, n, k int
	opts    Options
}

// loweringCases spans the inputs the band lowering branches on: fused
// and per-tile bands, every resolved packing mode, a single-block grid
// (automatic blocking) and a ragged one with remainder blocks in all
// three dimensions, on a NEON and an SVE chip.
func loweringCases() []loweringCase {
	var out []loweringCase
	for _, chip := range []*hw.Chip{hw.KP920(), hw.A64FX()} {
		for _, s := range [][3]int{{26, 36, 20}, {50, 70, 90}, {7, 100, 33}} {
			for _, blocking := range []struct {
				name       string
				mc, nc, kc int
			}{{"auto", 0, 0, 0}, {"ragged", 16, 32, 40}} {
				for _, pack := range []PackMode{PackNone, PackOnline, PackOffline} {
					for _, fuse := range []bool{false, true} {
						out = append(out, loweringCase{
							name: fmt.Sprintf("%s/%dx%dx%d/%s/%s/fuse=%v",
								chip.Name, s[0], s[1], s[2], blocking.name, pack, fuse),
							chip: chip, m: s[0], n: s[1], k: s[2],
							opts: Options{
								MC: blocking.mc, NC: blocking.nc, KC: blocking.kc,
								Pack: pack, Rotate: true, Fuse: fuse,
							},
						})
					}
				}
			}
		}
	}
	return out
}

// loweringDigest renders the exact bits of everything a plan's lowering
// feeds: the Eqn-13 model cycles the planner recorded, the estimator's
// cycles, every per-task virtual-time cost and the declared kernel keys.
func loweringDigest(t *testing.T, p *Plan) string {
	t.Helper()
	est, err := p.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	tc, err := p.TaskCosts()
	if err != nil {
		t.Fatal(err)
	}
	tasks := fnv.New64a()
	var buf [8]byte
	for _, c := range tc {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.Cycles))
		tasks.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.Bytes))
		tasks.Write(buf[:])
	}
	keys := append([]string(nil), p.Recipe.KernelKeys...)
	sort.Strings(keys)
	kh := fnv.New64a()
	for _, k := range keys {
		kh.Write([]byte(k))
		kh.Write([]byte{0})
	}
	return fmt.Sprintf("est=%016x model=%016x tasks=%016x/%d keys=%016x/%d",
		math.Float64bits(est.Cycles), math.Float64bits(p.Recipe.ModelCycles),
		tasks.Sum64(), len(tc), kh.Sum64(), len(keys))
}

// loweringGolden pins loweringDigest for every loweringCases plan. A
// refactor of how bands lower to kernel calls must leave every entry
// unchanged: a changed estimate, task cost or key set means a consumer
// now lowers a band differently.
var loweringGolden = map[string]string{
	"KP920/26x36x20/auto/none/fuse=false":      "est=40a8c00000000000 model=40a97b0000000000 tasks=fb841c0cd08c9d55/1 keys=8ae96996822c7aab/3",
	"KP920/26x36x20/auto/none/fuse=true":       "est=40a7100000000000 model=40a7810000000000 tasks=164a94e8d62d9d02/1 keys=6135f1570dd8c9bf/2",
	"KP920/26x36x20/auto/online/fuse=false":    "est=40af5a0000000000 model=40a97b0000000000 tasks=e2b4137f5723cdf8/1 keys=8ae96996822c7aab/3",
	"KP920/26x36x20/auto/online/fuse=true":     "est=40adaa0000000000 model=40a7810000000000 tasks=189a84bd9ac9bc3a/1 keys=6135f1570dd8c9bf/2",
	"KP920/26x36x20/auto/offline/fuse=false":   "est=40abc20000000000 model=40a97b0000000000 tasks=5690662d7fb1f7a4/1 keys=8ae96996822c7aab/3",
	"KP920/26x36x20/auto/offline/fuse=true":    "est=40aa120000000000 model=40a7810000000000 tasks=f4f9ac2e1e1a505d/1 keys=6135f1570dd8c9bf/2",
	"KP920/26x36x20/ragged/none/fuse=false":    "est=40a9b60000000000 model=40aabe0000000000 tasks=1bde1785b5f1bec6/4 keys=26a656beed585234/6",
	"KP920/26x36x20/ragged/none/fuse=true":     "est=40a7ba0000000000 model=40a93f0000000000 tasks=f9623e6c22ffe203/4 keys=de3ff5806b787065/5",
	"KP920/26x36x20/ragged/online/fuse=false":  "est=40b66d0000000000 model=40aabe0000000000 tasks=e37dbe8ecaf5ebe0/4 keys=26a656beed585234/6",
	"KP920/26x36x20/ragged/online/fuse=true":   "est=40b56f0000000000 model=40a93f0000000000 tasks=90dffd18b5e34157/4 keys=de3ff5806b787065/5",
	"KP920/26x36x20/ragged/offline/fuse=false": "est=40b1590000000000 model=40aabe0000000000 tasks=bbdf88dea3c9163f/4 keys=26a656beed585234/6",
	"KP920/26x36x20/ragged/offline/fuse=true":  "est=40b05b0000000000 model=40a93f0000000000 tasks=3c5e9b378dd99676/4 keys=de3ff5806b787065/5",
	"KP920/50x70x90/auto/none/fuse=false":      "est=40e6524000000000 model=40e68f0000000000 tasks=5b1ade50e60dc457/1 keys=9e3c911dff801c6b/3",
	"KP920/50x70x90/auto/none/fuse=true":       "est=40e6048000000000 model=40e6190000000000 tasks=77c48d0f1536e03d/1 keys=9448cf1b22086654/3",
	"KP920/50x70x90/auto/online/fuse=false":    "est=40e8847000000000 model=40e68f0000000000 tasks=0a30646e0dfb627f/1 keys=9e3c911dff801c6b/3",
	"KP920/50x70x90/auto/online/fuse=true":     "est=40e836b000000000 model=40e6190000000000 tasks=b4e943f7983ae609/1 keys=9448cf1b22086654/3",
	"KP920/50x70x90/auto/offline/fuse=false":   "est=40e73cf000000000 model=40e68f0000000000 tasks=eede63b32722c980/1 keys=9e3c911dff801c6b/3",
	"KP920/50x70x90/auto/offline/fuse=true":    "est=40e6ef3000000000 model=40e6190000000000 tasks=755937adcda163f8/1 keys=9448cf1b22086654/3",
	"KP920/50x70x90/ragged/none/fuse=false":    "est=40e931a000000000 model=40f0764000000000 tasks=76b30acc19356cf1/12 keys=0c6c0f8a78863aa6/14",
	"KP920/50x70x90/ragged/none/fuse=true":     "est=40e8216000000000 model=40f006e000000000 tasks=25cab5e9acc36f89/12 keys=5d9fc400d74ccf8f/12",
	"KP920/50x70x90/ragged/online/fuse=false":  "est=40f38bb800000000 model=40f0764000000000 tasks=7766776352d15f80/12 keys=0c6c0f8a78863aa6/14",
	"KP920/50x70x90/ragged/online/fuse=true":   "est=40f3039800000000 model=40f006e000000000 tasks=8655cb3d9ee86bcc/12 keys=5d9fc400d74ccf8f/12",
	"KP920/50x70x90/ragged/offline/fuse=false": "est=40ef017000000000 model=40f0764000000000 tasks=9905afce5a7cf51b/12 keys=0c6c0f8a78863aa6/14",
	"KP920/50x70x90/ragged/offline/fuse=true":  "est=40edf13000000000 model=40f006e000000000 tasks=cc86ccd04083a78f/12 keys=5d9fc400d74ccf8f/12",
	"KP920/7x100x33/auto/none/fuse=false":      "est=40ac5a0000000000 model=40acf70000000000 tasks=aa60cb899734f34d/1 keys=c618cfad0b3ceeb7/5",
	"KP920/7x100x33/auto/none/fuse=true":       "est=40a9d80000000000 model=40ab650000000000 tasks=11e1d2e62daaecb6/1 keys=4263c7416c839431/2",
	"KP920/7x100x33/auto/online/fuse=false":    "est=40b4d52000000000 model=40acf70000000000 tasks=fb9b1c7b63dcf574/1 keys=c618cfad0b3ceeb7/5",
	"KP920/7x100x33/auto/online/fuse=true":     "est=40b3942000000000 model=40ab650000000000 tasks=1f473648dac82c8c/1 keys=4263c7416c839431/2",
	"KP920/7x100x33/auto/offline/fuse=false":   "est=40ae834000000000 model=40acf70000000000 tasks=13aa877660329ee4/1 keys=c618cfad0b3ceeb7/5",
	"KP920/7x100x33/auto/offline/fuse=true":    "est=40ac014000000000 model=40ab650000000000 tasks=4f788f6a9d145a60/1 keys=4263c7416c839431/2",
	"KP920/7x100x33/ragged/none/fuse=false":    "est=40acac0000000000 model=40ad9c0000000000 tasks=149635b388cb4423/4 keys=4f02eaaaea4d433b/3",
	"KP920/7x100x33/ragged/none/fuse=true":     "est=40ab620000000000 model=40ac9a0000000000 tasks=4f8088a731596a74/4 keys=767f346b036a5134/2",
	"KP920/7x100x33/ragged/online/fuse=false":  "est=40ba760000000000 model=40ad9c0000000000 tasks=5da311ab4a7fae68/4 keys=4f02eaaaea4d433b/3",
	"KP920/7x100x33/ragged/online/fuse=true":   "est=40b9d10000000000 model=40ac9a0000000000 tasks=a74d9caf58257135/4 keys=767f346b036a5134/2",
	"KP920/7x100x33/ragged/offline/fuse=false": "est=40b2a88000000000 model=40ad9c0000000000 tasks=3be327f7321c0593/4 keys=4f02eaaaea4d433b/3",
	"KP920/7x100x33/ragged/offline/fuse=true":  "est=40b2038000000000 model=40ac9a0000000000 tasks=8dc0a1f1ad08036c/4 keys=767f346b036a5134/2",
	"A64FX/26x36x20/auto/none/fuse=false":      "est=4093bc0000000000 model=40933e0000000000 tasks=a77eccc338dc2b0d/1 keys=bc3c4bc3a889cf37/2",
	"A64FX/26x36x20/auto/none/fuse=true":       "est=4093bc0000000000 model=40933e0000000000 tasks=a77eccc338dc2b0d/1 keys=bc3c4bc3a889cf37/2",
	"A64FX/26x36x20/auto/online/fuse=false":    "est=409e070000000000 model=40933e0000000000 tasks=77826c0e0ae69561/1 keys=bc3c4bc3a889cf37/2",
	"A64FX/26x36x20/auto/online/fuse=true":     "est=409e070000000000 model=40933e0000000000 tasks=77826c0e0ae69561/1 keys=bc3c4bc3a889cf37/2",
	"A64FX/26x36x20/auto/offline/fuse=false":   "est=40988f0000000000 model=40933e0000000000 tasks=0e9cd9bb6f4aa75f/1 keys=bc3c4bc3a889cf37/2",
	"A64FX/26x36x20/auto/offline/fuse=true":    "est=40988f0000000000 model=40933e0000000000 tasks=0e9cd9bb6f4aa75f/1 keys=bc3c4bc3a889cf37/2",
	"A64FX/26x36x20/ragged/none/fuse=false":    "est=409a040000000000 model=4099660000000000 tasks=d0acb8278900ba4e/4 keys=2a649c62bf95b304/6",
	"A64FX/26x36x20/ragged/none/fuse=true":     "est=4099700000000000 model=4098fc0000000000 tasks=9b9b8f41cc2f5c88/4 keys=f359e2a327772c93/6",
	"A64FX/26x36x20/ragged/online/fuse=false":  "est=40af6d0000000000 model=4099660000000000 tasks=7c7c8e289f1c819a/4 keys=2a649c62bf95b304/6",
	"A64FX/26x36x20/ragged/online/fuse=true":   "est=40af230000000000 model=4098fc0000000000 tasks=60a41c0d17b192c6/4 keys=f359e2a327772c93/6",
	"A64FX/26x36x20/ragged/offline/fuse=false": "est=40a5e50000000000 model=4099660000000000 tasks=a64d04f865a5ecb8/4 keys=2a649c62bf95b304/6",
	"A64FX/26x36x20/ragged/offline/fuse=true":  "est=40a59b0000000000 model=4098fc0000000000 tasks=380d57c8dce9cc19/4 keys=f359e2a327772c93/6",
	"A64FX/50x70x90/auto/none/fuse=false":      "est=40c9350000000000 model=40c9540000000000 tasks=4c49d9c8e0a81e2b/1 keys=751ecf2f58b94fb4/3",
	"A64FX/50x70x90/auto/none/fuse=true":       "est=40c91f0000000000 model=40c9540000000000 tasks=3cefa3ca9c9cae51/1 keys=0fcc82f94e72f2a6/2",
	"A64FX/50x70x90/auto/online/fuse=false":    "est=40cc5d7000000000 model=40c9540000000000 tasks=7644ecf8082abcea/1 keys=751ecf2f58b94fb4/3",
	"A64FX/50x70x90/auto/online/fuse=true":     "est=40cc477000000000 model=40c9540000000000 tasks=945e366d243b54b0/1 keys=0fcc82f94e72f2a6/2",
	"A64FX/50x70x90/auto/offline/fuse=false":   "est=40ca89f000000000 model=40c9540000000000 tasks=e777a20e55a4348c/1 keys=751ecf2f58b94fb4/3",
	"A64FX/50x70x90/auto/offline/fuse=true":    "est=40ca73f000000000 model=40c9540000000000 tasks=21f99e56b6a3c866/1 keys=0fcc82f94e72f2a6/2",
	"A64FX/50x70x90/ragged/none/fuse=false":    "est=40d44cc000000000 model=40d8d6e000000000 tasks=dc55a9a3a18061e1/12 keys=53c6c521f92fdc5b/12",
	"A64FX/50x70x90/ragged/none/fuse=true":     "est=40d44cc000000000 model=40d8d6e000000000 tasks=dc55a9a3a18061e1/12 keys=53c6c521f92fdc5b/12",
	"A64FX/50x70x90/ragged/online/fuse=false":  "est=40e53a1400000000 model=40d8d6e000000000 tasks=a4f232b8d7088cc2/12 keys=53c6c521f92fdc5b/12",
	"A64FX/50x70x90/ragged/online/fuse=true":   "est=40e53a1400000000 model=40d8d6e000000000 tasks=a4f232b8d7088cc2/12 keys=53c6c521f92fdc5b/12",
	"A64FX/50x70x90/ragged/offline/fuse=false": "est=40dead2800000000 model=40d8d6e000000000 tasks=ba84fca204a80923/12 keys=53c6c521f92fdc5b/12",
	"A64FX/50x70x90/ragged/offline/fuse=true":  "est=40dead2800000000 model=40d8d6e000000000 tasks=ba84fca204a80923/12 keys=53c6c521f92fdc5b/12",
	"A64FX/7x100x33/auto/none/fuse=false":      "est=4092500000000000 model=4091e40000000000 tasks=2f62b616c0abeabb/1 keys=07c618d3406de27e/3",
	"A64FX/7x100x33/auto/none/fuse=true":       "est=4091880000000000 model=4091e40000000000 tasks=c7e3ec9a671c6c84/1 keys=6e7d9e00fa4b37b9/2",
	"A64FX/7x100x33/auto/online/fuse=false":    "est=40a0185000000000 model=4091e40000000000 tasks=9e1325c4af84988d/1 keys=07c618d3406de27e/3",
	"A64FX/7x100x33/auto/online/fuse=true":     "est=409f68a000000000 model=4091e40000000000 tasks=d5c4c5d78e9c1dae/1 keys=6e7d9e00fa4b37b9/2",
	"A64FX/7x100x33/auto/offline/fuse=false":   "est=4096b6a000000000 model=4091e40000000000 tasks=332c75e68b2c2d55/1 keys=07c618d3406de27e/3",
	"A64FX/7x100x33/auto/offline/fuse=true":    "est=4095eea000000000 model=4091e40000000000 tasks=29d04debdb534c2a/1 keys=6e7d9e00fa4b37b9/2",
	"A64FX/7x100x33/ragged/none/fuse=false":    "est=4096300000000000 model=4096960000000000 tasks=8f0c0cd518723a97/4 keys=d11a64392180f5ad/2",
	"A64FX/7x100x33/ragged/none/fuse=true":     "est=4096300000000000 model=4096960000000000 tasks=8f0c0cd518723a97/4 keys=d11a64392180f5ad/2",
	"A64FX/7x100x33/ragged/online/fuse=false":  "est=40aeba4000000000 model=4096960000000000 tasks=d30c8db3c6b97a5a/4 keys=d11a64392180f5ad/2",
	"A64FX/7x100x33/ragged/online/fuse=true":   "est=40aeba4000000000 model=4096960000000000 tasks=d30c8db3c6b97a5a/4 keys=d11a64392180f5ad/2",
	"A64FX/7x100x33/ragged/offline/fuse=false": "est=40a3e54000000000 model=4096960000000000 tasks=08cf7eb0c3f5e4b3/4 keys=d11a64392180f5ad/2",
	"A64FX/7x100x33/ragged/offline/fuse=true":  "est=40a3e54000000000 model=4096960000000000 tasks=08cf7eb0c3f5e4b3/4 keys=d11a64392180f5ad/2",
}

func TestLoweringGolden(t *testing.T) {
	for _, c := range loweringCases() {
		p, err := NewPlan(c.chip, c.m, c.n, c.k, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := loweringDigest(t, p)
		want, ok := loweringGolden[c.name]
		if !ok {
			t.Errorf("missing golden entry:\n\t%q: %q,", c.name, got)
			continue
		}
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, want)
		}
	}
}

// TestLoweringAgreement runs every golden plan through execution and
// both estimators and checks the kernels they requested are exactly the
// kernels the plan declares: execution, timing and planning all lower
// bands the same way, so no consumer reaches an undeclared key and no
// declared key goes unused.
func TestLoweringAgreement(t *testing.T) {
	for _, c := range loweringCases() {
		p, err := NewPlan(c.chip, c.m, c.n, c.k, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		a := make([]float32, c.m*c.k)
		b := make([]float32, c.k*c.n)
		refgemm.Fill(a, c.m, c.k, c.k, 1)
		refgemm.Fill(b, c.k, c.n, c.n, 2)
		got := make([]float32, c.m*c.n)
		want := make([]float32, c.m*c.n)
		if err := p.Run(got, a, b); err != nil {
			t.Fatalf("%s: run: %v", c.name, err)
		}
		refgemm.GEMM(c.m, c.n, c.k, a, c.k, b, c.n, want, c.n)
		if e := refgemm.MaxRelErr(got, want, c.m, c.n, c.n, c.n); e > refgemm.Tolerance {
			t.Errorf("%s: run error %.3g", c.name, e)
		}
		if _, err := p.Estimate(); err != nil {
			t.Fatalf("%s: estimate: %v", c.name, err)
		}
		if _, err := p.EstimateExact(); err != nil {
			t.Fatalf("%s: exact: %v", c.name, err)
		}
		var cached []string
		for _, k := range p.cache.Keys() {
			cached = append(cached, string(k))
		}
		declared := append([]string(nil), p.Recipe.KernelKeys...)
		sort.Strings(declared)
		if !reflect.DeepEqual(cached, declared) {
			t.Errorf("%s: kernel cache holds %v, plan declares %v", c.name, cached, declared)
		}
	}
}

// TestBlockWalkGolden pins the block-grid walk of every loop order on a
// ragged shape: group order feeds TaskCosts and the virtual-time
// replays, so the walk must visit blocks in exactly this sequence.
func TestBlockWalkGolden(t *testing.T) {
	want := map[LoopOrder]string{
		OrderMNK: "3a59cd6b2b9d63c6/27",
		OrderMKN: "26ccc02813fcb7e8/27",
		OrderNMK: "297489255590431a/27",
		OrderNKM: "82a2251767c49eec/27",
		OrderKMN: "4b687b8d5bb32e52/27",
		OrderKNM: "ba7afd24089ba9d6/27",
	}
	chip := hw.KP920()
	for _, order := range AllLoopOrders() {
		p, err := NewPlan(chip, 37, 45, 29, Options{MC: 16, NC: 20, KC: 12, Order: order, Pack: PackOnline})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		blocks := p.blocks()
		for _, b := range blocks {
			fmt.Fprintf(h, "%d,%d,%d,%d,%d,%d,%v;", b.MOff, b.NOff, b.KOff, b.MB, b.NB, b.KB, b.First)
		}
		got := fmt.Sprintf("%016x/%d", h.Sum64(), len(blocks))
		if got != want[order] {
			t.Errorf("%s: block walk %s, want %s", order, got, want[order])
		}
	}
}
