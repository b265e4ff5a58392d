package pard

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
)

// Absolute trajectory goldens. Every other digest test compares two
// runs of the current code against each other, so a change that moves
// every path the same way passes them all. These pin the FNV-64a hash
// of StateDigest for fixed scenarios as recorded before the engine's
// clocked tickers replaced the per-cycle memory-controller and
// crossbar event chains; a change that alters any simulated outcome
// must update them deliberately.

// goldenHash is the FNV-64a hash of a state digest, in hex.
func goldenHash(d string) string {
	h := fnv.New64a()
	h.Write([]byte(d))
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenColocation provisions c on s with the STREAM placement the
// goldens were recorded with: STREAM i walks from base i, where
// Colocation starts every STREAM at 0.
func goldenColocation(t *testing.T, s *System, c Colocation) {
	t.Helper()
	if _, err := c.Provision(s); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := s.CreateLDom(LDomConfig{
			Name: "stream", Cores: []int{i},
			MemBase: uint64(i) * colocationLDomBytes, MemSize: colocationLDomBytes,
		}); err != nil {
			t.Fatal(err)
		}
		s.RunWorkload(i, NewSTREAM(uint64(i)))
	}
}

// goldenServer provisions the Figure 8 server on s: memcached at 17.5
// KRPS under the built-in LLC guard, beside STREAM in LDoms 1-3. seed
// reaches only memcached's arrivals and probes.
func goldenServer(t *testing.T, s *System, seed int64) {
	t.Helper()
	goldenColocation(t, s, Colocation{RPS: 17500, Guard: LLCGuardTrigger, seed: seed})
}

func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.SampleInterval = 50 * Microsecond
	cfg.TraceSample = 16
	return cfg
}

// goldenSystem runs one Figure 8 server for d after tweak adjusted its
// config and setup adjusted the booted system.
func goldenSystem(t *testing.T, d Tick, tweak func(*Config), setup func(*System)) string {
	t.Helper()
	cfg := goldenConfig()
	if tweak != nil {
		tweak(&cfg)
	}
	s := NewSystem(cfg)
	goldenServer(t, s, 42)
	if setup != nil {
		setup(s)
	}
	s.Run(d)
	return StateDigest([]*System{s})
}

// memScheduler installs algo on the memory plane through the PRM file
// tree, as a `.pard` schedule declaration does.
func memScheduler(t *testing.T, algo string) func(*System) {
	return func(s *System) {
		if err := s.Firmware.FS().WriteFile("/sys/cpa/cpa1/scheduler", algo); err != nil {
			t.Fatal(err)
		}
	}
}

// rack2Sched runs the scheduler workload on a 2-server ring: the rack
// equivalence workload (STREAM on every core 0, cross-server
// flow-tagged frames), a second STREAM per server walking other rows so
// the memory controller builds a real queue, and eight IDE writes per
// server from DS-ids 1 and 2 so the DRR ring is on the path. setup runs
// on every booted server before any traffic flows.
func rack2Sched(t *testing.T, setup func(*System)) string {
	t.Helper()
	rack := switchless(t, equivConfig(), 1, 2, 1, 1)
	if setup != nil {
		for _, s := range rack.Servers {
			setup(s)
		}
	}
	provisionEquivWorkload(t, rack)
	for i, s := range rack.Servers {
		s.RunWorkload(1, NewSTREAM(uint64(100+i)))
	}
	for i, s := range rack.Servers {
		s := s
		for j := 0; j < 8; j++ {
			ds := core.DSID(1 + j%2)
			size := uint32(8<<10) + uint32(j)*4<<10
			s.Engine.At(5*Microsecond+Tick(i)*1031*Nanosecond+Tick(j)*7013*Nanosecond, func() {
				p := core.NewPacket(s.IDs, core.KindPIOWrite, ds, 0, size, s.Engine.Now())
				s.IDE.Request(p)
			})
		}
	}
	rack.Run(equivRun)
	return StateDigest(rack.Servers)
}

// sweepRing runs the rack sweep's workload (`pardbench -shards`,
// BenchmarkRackParallel*): four default servers in a switchless ring of
// one-server racks, 25 frames each, for 1 ms.
func sweepRing(t *testing.T, shards, workers int) *Cluster {
	t.Helper()
	c := switchless(t, DefaultConfig(), 4, 1, shards, workers)
	if err := ProvisionClusterWorkload(c, 25); err != nil {
		t.Fatal(err)
	}
	c.Run(Millisecond)
	return c
}

func TestTrajectoryGoldens(t *testing.T) {
	cases := []struct {
		name string
		want string
		run  func(t *testing.T) string
	}{
		{"fig8_frfcfs", "95248392edab3bc8", func(t *testing.T) string {
			return goldenSystem(t, 2*Millisecond, nil, nil)
		}},
		{"fig8_strict", "f88cfff244e91f68", func(t *testing.T) string {
			return goldenSystem(t, 2*Millisecond, nil, memScheduler(t, dram.SchedStrict))
		}},
		{"fig8_edf", "a710b6780eb41a5a", func(t *testing.T) string {
			return goldenSystem(t, 2*Millisecond, nil, func(s *System) {
				memScheduler(t, dram.SchedEDF)(s)
				s.Mem.Plane().SetParam(0, dram.ParamLatTarget, 200)
			})
		}},
		// Moved from 3f929c65daa8b51f when the grant scan stopped giving
		// up behind drained DS-ids (xbar TestDrainedDSIDsDoNotStallGrants).
		{"crossbar", "c9d069000e614545", func(t *testing.T) string {
			return goldenSystem(t, 2*Millisecond, func(c *Config) { c.Crossbar = true }, nil)
		}},
		{"core_window_4", "402541e925ae27a2", func(t *testing.T) string {
			return goldenSystem(t, 2*Millisecond, func(c *Config) { c.CoreWindow = 4 }, nil)
		}},
		{"compression", "0bb180103f3d50b8", func(t *testing.T) string {
			return goldenSystem(t, 2*Millisecond,
				func(c *Config) { c.Mem.CompressionEngine = true },
				func(s *System) { s.Mem.Plane().SetParam(1, dram.ParamCompress, 1) })
		}},
		// Moved from 7c5cf6bf71bb904b when DestroyLDom began stopping
		// the LDom's cores and resetting their tags before the flush
		// (TestTeardownStopsCores): core 2 no longer issues under ds2.
		{"ldom_teardown", "e69f6ce56e04a9ed", func(t *testing.T) string {
			// Destroying a STREAM LDom between runs flushes its dirty
			// LLC blocks: the writebacks reach the memory controller
			// outside any event.
			s := NewSystem(goldenConfig())
			goldenServer(t, s, 42)
			s.Run(Millisecond)
			if err := s.Firmware.DestroyLDom(2); err != nil {
				t.Fatal(err)
			}
			s.Run(Millisecond)
			return StateDigest([]*System{s})
		}},
		{"rack4", "6aa91d62922e56e1", func(t *testing.T) string {
			// Four Figure 8 servers on one engine.
			rack := switchless(t, goldenConfig(), 1, 4, 1, 1)
			for i, s := range rack.Servers {
				goldenServer(t, s, int64(1+i))
			}
			rack.Run(Millisecond)
			return StateDigest(rack.Servers)
		}},
		// The only golden with IDE contention, so the one that pins the
		// DRR schedule: reversing the DRR argmin moves it to
		// 8fa4849432e36bd7, installing strict on the memory plane to
		// fc10774bdb8c31b1.
		{"rack2_sched", "cb8ecb6fcc0c8bed", func(t *testing.T) string {
			return rack2Sched(t, nil)
		}},
		// Recorded before the sequential and sharded racks became
		// switchless clusters: the rack sweep at 4 shards (BENCH.json's
		// rack_parallel digest), the sequential ring the equivalence
		// suites compare against, and the reference cluster's full
		// digest, switch tables included.
		{"ring4_sharded", "73e8f65ac7f3996d", func(t *testing.T) string {
			return StateDigest(sweepRing(t, 4, 4).Servers)
		}},
		{"ring4", "3894e78e9a8f4f07", func(t *testing.T) string {
			return sequentialRackDigest(t, 4)
		}},
		{"cluster4x2", "4ccce76f858594b8", func(t *testing.T) string {
			c := refCluster(t, 1, 1)
			c.Run(equivRun)
			return c.Digest()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := goldenHash(c.run(t)); got != c.want {
				t.Errorf("state digest hash %s, golden %s", got, c.want)
			}
		})
	}
}

// TestShardCounts pins the barrier protocol's exact counts, the only
// output that shows the lookahead table: registering twice the ring
// latency, or none at all, simulates the same machine and leaves every
// digest unchanged, but moves the windows run or the idle skips.
// Worker count never changes them.
func TestShardCounts(t *testing.T) {
	sweep := func(shards, workers int) *Cluster { return sweepRing(t, shards, workers) }
	ref := func(shards, workers int) *Cluster {
		c := refCluster(t, shards, workers)
		c.Run(equivRun)
		return c
	}
	cases := []struct {
		name                 string
		run                  func(shards, workers int) *Cluster
		shards               int
		windows, idle, cross uint64
	}{
		{"sweep ring", sweep, 2, 983, 0, 200},
		{"sweep ring", sweep, 4, 983, 11, 200},
		{"cluster 4x2", ref, 2, 995, 0, 160},
		{"cluster 4x2", ref, 4, 993, 0, 240},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, tc.shards} {
			g := tc.run(tc.shards, workers).Group
			if g.WindowsRun != tc.windows || g.IdleSkips != tc.idle || g.CrossSends != tc.cross {
				t.Errorf("%s shards=%d workers=%d: windows/idle_skips/cross_sends %d/%d/%d, want %d/%d/%d",
					tc.name, tc.shards, workers, g.WindowsRun, g.IdleSkips, g.CrossSends,
					tc.windows, tc.idle, tc.cross)
			}
		}
	}
}
