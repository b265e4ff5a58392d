package exp

import (
	"repro/internal/sim"
	"repro/pard"
)

// Arm selects a Figure 8/9 configuration.
type Arm int

// Arms of the memcached co-location experiment.
const (
	ArmSolo    Arm = iota // memcached alone (25% CPU utilization)
	ArmShared             // + 3 STREAM LDoms, no QoS rules (100% util)
	ArmTrigger            // + 3 STREAM LDoms, miss-rate trigger installed
)

func (a Arm) String() string {
	switch a {
	case ArmSolo:
		return "solo"
	case ArmShared:
		return "shared"
	case ArmTrigger:
		return "w/ LLC Trigger"
	}
	return "?"
}

// colocation is one assembled Figure 8/9 run.
type colocation struct {
	Sys *pard.System
	MC  *pard.Memcached
}

// newColocation builds the four-LDom server (pard.Colocation) at the
// statistics window the trigger is calibrated against. Non-solo arms
// add the STREAM LDoms after streamDelay (Figure 9 staggers them so
// the miss-rate climb is visible); ArmTrigger installs the paper's
// rule first:
//
//	LLC.miss_rate > 30% => llc_grow_to_half
func newColocation(rps float64, arm Arm, streamDelay sim.Tick) *colocation {
	cfg := pard.DefaultConfig()
	cfg.SampleInterval = 50 * sim.Microsecond
	sys := pard.NewSystem(cfg)
	server := pard.Colocation{RPS: rps, Streams: arm != ArmSolo, StreamStart: streamDelay}
	if arm == ArmTrigger {
		server.Guard = pard.LLCGuardTrigger
	}
	mc, err := server.Provision(sys)
	if err != nil {
		panic("exp: " + err.Error())
	}
	return &colocation{Sys: sys, MC: mc}
}

// run executes warmup (discarding its latency samples) then the
// measurement window.
func (c *colocation) run(warm, measure sim.Tick) {
	c.Sys.Run(warm)
	c.MC.ResetStats()
	for _, core := range c.Sys.Cores {
		core.BusyTicks, core.StallTicks, core.IdleTicks = 0, 0, 0
	}
	c.Sys.Run(measure)
}
