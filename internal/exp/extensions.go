package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/sim"
)

// CompressionResult evaluates the paper's §8 functionality extension:
// an IBM-MXT-style compression engine at the memory controller,
// programmed to compress traffic for designated DS-id sets only. The
// experiment saturates the channel with a row-hit stream and compares
// throughput and latency for a compressed vs an uncompressed DS-id.
type CompressionResult struct {
	PlainTime      sim.Tick // wall time to serve N requests uncompressed
	CompressedTime sim.Tick
	PlainLat       sim.Tick // unloaded access latency
	CompressedLat  sim.Tick
	Requests       int
}

// Compression runs the comparison.
func Compression(requests int) *CompressionResult {
	if requests <= 0 {
		requests = 500
	}
	res := &CompressionResult{Requests: requests}

	run := func(compress bool) (total, lat sim.Tick) {
		e := sim.NewEngine()
		ids := core.NewIDSource()
		cfg := dram.DefaultConfig()
		cfg.CompressionEngine = true
		ctrl := dram.New(e, ids, cfg)
		if compress {
			ctrl.Plane().SetParam(1, dram.ParamCompress, 1)
		}
		// Unloaded latency first.
		probe := core.NewPacket(ids, core.KindMemRead, 1, 1<<22, 64, e.Now())
		ctrl.Request(probe)
		e.StepUntil(probe.Completed)
		lat = probe.Latency()

		done := 0
		start := e.Now()
		for i := 0; i < requests; i++ {
			p := core.NewPacket(ids, core.KindMemRead, 1, uint64(i)*64, 64, e.Now())
			p.OnDone = func(*core.Packet) { done++ }
			ctrl.Request(p)
		}
		e.StepUntil(func() bool { return done == requests })
		return e.Now() - start, lat
	}
	res.PlainTime, res.PlainLat = run(false)
	res.CompressedTime, res.CompressedLat = run(true)
	return res
}

// BandwidthGain returns plain-time / compressed-time (~2x for 2:1
// compression on a channel-bound stream).
func (r *CompressionResult) BandwidthGain() float64 {
	return ratio(float64(r.PlainTime), float64(r.CompressedTime))
}

// Print renders the comparison.
func (r *CompressionResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Extension (§8): per-DS-id memory compression engine (MXT-style)")
	tw := newTable(w)
	fmt.Fprintf(tw, "arm\tunloaded latency\ttime for %d row hits\n", r.Requests)
	fmt.Fprintf(tw, "plain DS-id\t%v\t%v\n", r.PlainLat, r.PlainTime)
	fmt.Fprintf(tw, "compressed DS-id\t%v\t%v\n", r.CompressedLat, r.CompressedTime)
	tw.Flush()
	fmt.Fprintf(w, "channel-bound bandwidth gain %.2fx; latency cost +%v per access\n",
		r.BandwidthGain(), r.CompressedLat-r.PlainLat)
	fmt.Fprintln(w, "only designated DS-id sets pay the engine; others are untouched (paper §8)")
}

// FlowSteeringResult exercises the SDN-integration extension: an
// OpenFlow-style flow table on the NIC steering tagged flows to LDoms
// independently of MAC addressing (paper §4.1 / §8 / open problems).
type FlowSteeringResult struct {
	ByMAC    map[core.DSID]uint64 // RX bytes classified by MAC only
	ByFlow   map[core.DSID]uint64 // RX bytes with the flow rule installed
	Migrated uint64               // bytes that followed the flow rule
}

// FlowSteering is implemented against the pard system in extensions_sys.go.
