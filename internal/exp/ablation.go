package exp

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/pard"
)

// AblationWritebackResult quantifies the paper's §4.1 design choice:
// tagging multi-phase writebacks with the evicted block's *owner* DS-id
// rather than the evicting requester's. The scenario has LDom0 dirty a
// working set and LDom1 stream through the LLC, forcing LDom0's dirty
// blocks out. Under owner tagging the writeback memory traffic is
// charged to LDom0; under requester tagging it would all be charged to
// LDom1 — the "wrong behaviors" the paper warns about.
type AblationWritebackResult struct {
	// ByOwner and ByRequester count each LDom's writebacks (ldom0,
	// ldom1) under the two tagging designs.
	ByOwner, ByRequester [2]uint64
	// Misattributed is the fraction of LDom0's writebacks a
	// requester-tagged design would charge to someone else.
	Misattributed float64
}

// AblationWriteback runs the dirty-eviction scenario.
func AblationWriteback() *AblationWritebackResult {
	sys := pard.NewSystem(pard.DefaultConfig())
	sys.CreateLDom(pard.LDomConfig{Name: "writer", Cores: []int{0}, MemBase: 0})
	sys.CreateLDom(pard.LDomConfig{Name: "streamer", Cores: []int{1}, MemBase: 2 << 30})

	// LDom0 dirties a 2 MB set, then sits idle; LDom1 streams 32 MB.
	sys.RunWorkload(0, &workload.Finite{
		Gen: &workload.Stream{Base: 0, Footprint: 700 << 10, Compute: 1},
		N:   3 * (2 << 20) / 64,
	})
	sys.Run(10 * sim.Millisecond)
	sys.RunWorkload(1, &workload.CacheFlush{Base: 0, Footprint: 32 << 20, Seed: 5})
	sys.Run(20 * sim.Millisecond)

	res := &AblationWritebackResult{}
	for ds := range res.ByOwner {
		res.ByOwner[ds] = core.At(sys.LLC.WritebacksByOwner, core.DSID(ds))
		res.ByRequester[ds] = core.At(sys.LLC.WritebacksByRequester, core.DSID(ds))
	}
	owner0 := float64(res.ByOwner[0])
	requester0 := float64(res.ByRequester[0])
	if owner0 > 0 {
		res.Misattributed = (owner0 - requester0) / owner0
	}
	return res
}

// Print renders the comparison.
func (r *AblationWritebackResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation: writeback tag attribution (paper §4.1)")
	tw := newTable(w)
	fmt.Fprintf(tw, "LDom\twritebacks by owner tag (PARD)\tby requester tag (naive)\n")
	for ds := range r.ByOwner {
		fmt.Fprintf(tw, "ldom%d\t%d\t%d\n", ds, r.ByOwner[ds], r.ByRequester[ds])
	}
	tw.Flush()
	fmt.Fprintf(w, "requester tagging would misattribute %.0f%% of ldom0's writeback traffic\n", 100*r.Misattributed)
}

// AblationRowBufferResult compares the memory control plane with and
// without the per-DS-id extra row buffer (the VCM-style mechanism of
// §4.2) under the Figure 11 injection mix.
type AblationRowBufferResult struct {
	WithExtra    *Fig11Result
	WithoutExtra *Fig11Result
}

// AblationRowBuffer runs both configurations.
func AblationRowBuffer(scale Scale) *AblationRowBufferResult {
	with := DefaultFig11Config(scale)
	without := with
	without.RowBuffers = 1
	return &AblationRowBufferResult{
		WithExtra:    Fig11(with),
		WithoutExtra: Fig11(without),
	}
}

// Print renders the comparison.
func (r *AblationRowBufferResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation: per-DS-id extra row buffer (paper §4.2)")
	tw := newTable(w)
	fmt.Fprintf(tw, "configuration\thigh-prio mean delay\tlow-prio mean delay\n")
	fmt.Fprintf(tw, "2 row buffers (PARD)\t%.1f\t%.1f\n",
		r.WithExtra.High.Mean(), r.WithExtra.Low.Mean())
	fmt.Fprintf(tw, "1 row buffer\t%.1f\t%.1f\n",
		r.WithoutExtra.High.Mean(), r.WithoutExtra.Low.Mean())
	tw.Flush()
}

// AblationReplacementResult compares the LLC replacement policies under
// a mixed pattern (hot set + polluting scan): tree-PLRU (the paper's
// RTL), true LRU and random.
type AblationReplacementResult struct {
	HitRate map[string]float64 // policy name -> hit fraction
}

// AblationReplacement runs the comparison.
func AblationReplacement() *AblationReplacementResult {
	res := &AblationReplacementResult{HitRate: make(map[string]float64)}
	for _, pol := range []cache.Policy{cache.PolicyPLRU, cache.PolicyLRU, cache.PolicyRandom} {
		e := sim.NewEngine()
		ids := &core.IDSource{}
		ids.EnablePool()
		cfg := cache.Config{
			Name: "llc", SizeBytes: 256 << 10, Ways: 16, BlockSize: 64,
			HitLatency: 20, Policy: pol, Seed: 7,
		}
		c := cache.New(e, sim.NewClock(e, 500), ids, cfg, instantMem{e})
		r := newScanRand(13)
		hot := 2048 // blocks of hot set (half the cache)
		for i := 0; i < 60000; i++ {
			var addr uint64
			if i%3 != 0 {
				addr = uint64(r.next()%uint64(hot)) * 64 // hot reuse
			} else {
				addr = (1 << 24) + uint64(i)*64 // polluting scan
			}
			p := core.NewPacket(ids, core.KindMemRead, 1, addr, 64, e.Now())
			c.Request(p)
			e.StepUntil(p.Completed)
		}
		res.HitRate[pol.String()] = float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	return res
}

type scanRand struct{ s uint64 }

func newScanRand(seed uint64) *scanRand { return &scanRand{s: seed} }
func (r *scanRand) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Print renders the hit-rate table.
func (r *AblationReplacementResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation: LLC replacement policy (hot set + polluting scan)")
	tw := newTable(w)
	fmt.Fprintf(tw, "policy\thit rate\n")
	for _, name := range []string{"plru", "lru", "random"} {
		fmt.Fprintf(tw, "%s\t%.1f%%\n", name, 100*r.HitRate[name])
	}
	tw.Flush()
}

// AblationPartitionResult compares victim-selection policies: PARD's
// mask-restricted victims versus unrestricted PLRU, under the Figure 7
// CacheFlush attack.
type AblationPartitionResult struct {
	ProtectedOccupancy   uint64 // victim's blocks kept with partitioning
	UnprotectedOccupancy uint64 // without
	Capacity             uint64
}

// AblationPartition runs the attack against both configurations.
func AblationPartition() *AblationPartitionResult {
	run := func(partition bool) uint64 {
		e := sim.NewEngine()
		ids := &core.IDSource{}
		ids.EnablePool()
		cfg := cache.Config{
			Name: "llc", SizeBytes: 1 << 20, Ways: 16, BlockSize: 64,
			HitLatency: 20, ControlPlane: true,
		}
		c := cache.New(e, sim.NewClock(e, 500), ids, cfg, instantMem{e})
		if partition {
			c.Plane().SetParam(1, cache.ParamWayMask, 0xFF00)
			c.Plane().SetParam(2, cache.ParamWayMask, 0x00FF)
		}
		// Victim fills half the cache.
		for i := 0; i < c.NumBlocks()/2; i++ {
			p := core.NewPacket(ids, core.KindMemRead, 1, uint64(i)*64, 64, e.Now())
			c.Request(p)
			e.StepUntil(p.Completed)
		}
		// Attacker streams 8x the capacity.
		for i := 0; i < 8*c.NumBlocks(); i++ {
			p := core.NewPacket(ids, core.KindMemRead, 2, uint64(i)*64, 64, e.Now())
			c.Request(p)
			e.StepUntil(p.Completed)
		}
		return c.Occupancy(1)
	}
	return &AblationPartitionResult{
		ProtectedOccupancy:   run(true),
		UnprotectedOccupancy: run(false),
		Capacity:             1 << 20 / 64,
	}
}

// Print renders the comparison.
func (r *AblationPartitionResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation: way-partitioned victim selection vs unrestricted PLRU")
	tw := newTable(w)
	fmt.Fprintf(tw, "policy\tvictim's surviving blocks (of %d)\n", r.Capacity/2)
	fmt.Fprintf(tw, "mask-restricted victims (PARD)\t%d\n", r.ProtectedOccupancy)
	fmt.Fprintf(tw, "unrestricted PLRU\t%d\n", r.UnprotectedOccupancy)
	tw.Flush()
}
