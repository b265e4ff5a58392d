package pard

import (
	"cmp"
	"fmt"
)

// LLCGuardTrigger is the paper's §7.1.2 QoS rule as its pardtrigger
// command: when LDom0's LLC miss rate exceeds 30.0% (300 in the
// table's 0.1% units), the firmware's llc_grow_to_half action gives it
// the upper half of the ways. examples/policies/llc_guard.pard is the
// same rule in the policy language.
const LLCGuardTrigger = "pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,300 -action=llc_grow_to_half"

// Colocation is the paper's §7.1.2 co-location server, the one Figures
// 8 and 9 run: the calibrated memcached in LDom0 on core 0, optionally
// guarded by the LLC miss-rate rule, beside STREAM in LDoms 1-3 on
// cores 1-3. Provision builds it on a booted System.
type Colocation struct {
	// RPS is memcached's offered load in requests per second.
	RPS float64
	// Guard is the LLC rule: "" installs none, LLCGuardTrigger runs the
	// paper's pardtrigger command, and any other value is .pard source
	// loaded as policy "llc_guard".
	Guard string
	// Streams runs STREAM in LDoms 1-3 on cores 1-3.
	Streams bool
	// StreamStart delays the STREAM LDoms (Figure 9's startup phase);
	// 0 starts them with memcached.
	StreamStart Tick

	// seed replaces memcached's arrival and probe seed, 42, when
	// non-zero; only the goldens recorded at other seeds set it.
	seed int64
}

// colocationLDomBytes is each LDom's DRAM window: LDom i owns
// [i, i+1) × 2 GiB.
const colocationLDomBytes = 2 << 30

// memcached returns the calibrated service model of §7.1.2 at c's
// load: the client+server pair sharing one core, with a footprint
// sized so the LLC is the contended resource.
func (c Colocation) memcached() *Memcached {
	return NewMemcached(MemcachedConfig{
		RPS:            c.RPS,
		ComputeCycles:  66000,      // 33 µs protocol work at 2 GHz
		Accesses:       800,        // dependent probes over the value store
		FootprintBytes: 2304 << 10, // slightly over half the LLC, like the paper (solo ~7%, partitioned ~10%)
		Seed:           cmp.Or(c.seed, 42),
	})
}

// Provision creates memcached's LDom (memory priority 1, the
// high-priority row buffer), installs the guard, starts memcached and
// then the STREAM LDoms, and returns the running memcached. A server
// too small for the STREAM LDoms is rejected before anything is
// created.
func (c Colocation) Provision(sys *System) (*Memcached, error) {
	if c.Streams && len(sys.Cores) < 4 {
		return nil, fmt.Errorf("pard: colocation runs STREAM on cores 1-3 and needs 4 cores; the server has %d", len(sys.Cores))
	}
	if _, err := sys.CreateLDom(LDomConfig{
		Name: "memcached", Cores: []int{0},
		MemBase: 0, MemSize: colocationLDomBytes, Priority: 1, RowBuf: 1,
	}); err != nil {
		return nil, err
	}
	if err := sys.InstallLLCGuard(c.Guard); err != nil {
		return nil, fmt.Errorf("pard: colocation guard: %w", err)
	}
	mc := c.memcached()
	sys.RunWorkload(0, mc)
	switch {
	case !c.Streams:
	case c.StreamStart == 0:
		if err := startStreams(sys); err != nil {
			return nil, err
		}
	default:
		// An event has no caller to return an error to; the core
		// check above catches a server too small up front.
		sys.Engine.Schedule(c.StreamStart, func() {
			if err := startStreams(sys); err != nil {
				panic(err)
			}
		})
	}
	return mc, nil
}

// InstallLLCGuard installs guard, read as Colocation.Guard reads it.
// Figure 9 calls it mid-run to install the rule late.
func (s *System) InstallLLCGuard(guard string) error {
	switch guard {
	case "":
		return nil
	case LLCGuardTrigger:
		_, err := s.Firmware.Sh(guard)
		return err
	}
	return s.LoadPolicy("llc_guard", guard)
}

// startStreams creates the STREAM LDoms 1-3 on cores 1-3.
func startStreams(sys *System) error {
	for i := 1; i <= 3; i++ {
		if _, err := sys.CreateLDom(LDomConfig{
			Name: "stream", Cores: []int{i},
			MemBase: uint64(i) * colocationLDomBytes, MemSize: colocationLDomBytes,
		}); err != nil {
			return err
		}
		sys.RunWorkload(i, NewSTREAM(0))
	}
	return nil
}
