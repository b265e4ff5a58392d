package pard

import (
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/iodev"
	"repro/internal/prm"
	"repro/internal/sim"
)

// Config describes a PARD server. DefaultConfig reproduces the paper's
// simulated machine (Table 2).
type Config struct {
	// Cores is the number of CPU cores; CorePeriod their clock period
	// in ticks (500 = 2 GHz).
	Cores      int
	CorePeriod sim.Tick
	// CoreWindow is the per-core memory-level-parallelism window
	// (cpu.Core.Window). 0 keeps the calibrated blocking cores.
	CoreWindow int

	L1  cache.Config
	LLC cache.Config
	Mem dram.Config
	IDE iodev.IDEConfig
	NIC iodev.NICConfig
	PRM prm.Config

	// Crossbar inserts the modeled L1<->LLC interconnect
	// (xbar.DefaultConfig) with its own control plane (mounted as
	// cpa5). Off by default: the paper's simulated configuration
	// connects cores to the LLC directly, and the Figure 8/9
	// calibration assumes that topology.
	Crossbar bool

	// ProbeMemory inserts a trace probe in front of the memory
	// controller (System.MemProbe), observing every LLC fill,
	// writeback and DMA packet — pardctl's `trace` command.
	ProbeMemory bool

	// TraceSample enables the ICN flight recorder (System.Recorder),
	// sampling one packet in TraceSample by packet ID (rounded up to a
	// power of two; 1 samples everything, 0 disables). Sampled packets
	// get per-hop queue/service spans, per-(hop, DS-id) latency
	// histograms, lat_{p50,p99}_{queue,service} statistics files in the
	// PRM tree, and Perfetto export via Recorder.WritePerfetto.
	TraceSample uint64

	// SampleInterval is the statistics window passed to the LLC and
	// IDE planes when their own configs leave it zero. The memory plane
	// keeps dram.DefaultConfig's explicit 100 µs and the crossbar its
	// own window (core.DefaultSampleInterval); the NIC and bridge planes
	// run no sampler. The telemetry scrape inherits it too.
	SampleInterval sim.Tick

	// Telemetry configures the time-series registry and audit journal.
	// Enabled by default; scraping and journaling never perturb
	// simulation state (StateDigest is identical either way).
	Telemetry TelemetryConfig
}

// TelemetryConfig tunes the telemetry plane. Each series keeps its
// newest 512 samples and the journal its newest 1024 events.
type TelemetryConfig struct {
	// Disable turns the registry and journal off entirely.
	Disable bool
	// Interval is the scrape period in ticks; 0 inherits SampleInterval,
	// so stat series sample on the same cadence the planes publish.
	Interval sim.Tick
}

// DefaultConfig returns Table 2's parameters:
//
//	CPU      4 cores, 2 GHz
//	L1       64 KB 2-way per core, hit = 2 cycles
//	LLC      4 MB 16-way shared, hit = 20 cycles
//	DRAM     DDR3-1600 11-11-11, 1 channel, 2 ranks, 8 banks/rank, 1 KB rows
//	Disks    4-channel IDE controller, 8 disks
//	PRM      100 MHz firmware core, 5 control plane adaptors
func DefaultConfig() Config {
	return Config{
		Cores:      4,
		CorePeriod: 500,
		L1: cache.Config{
			SizeBytes:  64 * 1024,
			Ways:       2,
			BlockSize:  64,
			HitLatency: 2,
		},
		LLC: cache.Config{
			Name:         "llc",
			SizeBytes:    4 << 20,
			Ways:         16,
			BlockSize:    64,
			HitLatency:   20,
			ControlPlane: true,
			TriggerSlots: 64,
		},
		Mem: dram.DefaultConfig(),
		IDE: iodev.DefaultIDEConfig(),
		NIC: iodev.DefaultNICConfig(),
		PRM: prm.Config{HandlerLatency: 10 * sim.Microsecond},

		SampleInterval: 100 * sim.Microsecond,
	}
}

// fillDefaults normalizes a user-supplied config.
func (c *Config) fillDefaults() {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.CorePeriod == 0 {
		c.CorePeriod = 500
	}
	if c.L1.SizeBytes == 0 {
		c.L1 = DefaultConfig().L1
	}
	if c.LLC.SizeBytes == 0 {
		c.LLC = DefaultConfig().LLC
	}
	if c.Mem.TCK == 0 {
		c.Mem = dram.DefaultConfig()
	}
	if c.IDE.BytesPerSec == 0 {
		c.IDE = iodev.DefaultIDEConfig()
	}
	if c.NIC.BytesPerSec == 0 {
		c.NIC = iodev.DefaultNICConfig()
	}
	if !c.Telemetry.Disable && c.Telemetry.Interval == 0 {
		c.Telemetry.Interval = c.SampleInterval
	}
	if c.SampleInterval != 0 {
		if c.LLC.SampleInterval == 0 {
			c.LLC.SampleInterval = c.SampleInterval
		}
		if c.Mem.SampleInterval == 0 {
			c.Mem.SampleInterval = c.SampleInterval
		}
		if c.IDE.SampleInterval == 0 {
			c.IDE.SampleInterval = c.SampleInterval
		}
	}
}
