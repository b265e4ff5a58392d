package main

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/pard"
)

// workload is one benchmark input: how to build it, how long to warm
// it, and the simulated length of one timed step.
type workload struct {
	name string
	warm pard.Tick
	step pard.Tick
	// build assembles the topology (span setup.build) and then
	// provisions tenants, policies and traffic (span setup.provision).
	build func(seed int64, policy string, tr *tracer) (*rig, error)
}

var workloads = []*workload{
	{name: "colocate", warm: 10 * pard.Millisecond, step: 500 * pard.Microsecond, build: buildColocate},
	{name: "observe", warm: 10 * pard.Millisecond, step: 250 * pard.Microsecond, build: buildObserve},
	{name: "cluster_fabric", warm: 10 * pard.Millisecond, step: 3 * pard.Millisecond, build: buildClusterFabric},
	{name: "rack8", warm: 5 * pard.Millisecond, step: 50 * pard.Microsecond, build: buildRack8},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// rig is one assembled workload instance.
type rig struct {
	servers []*pard.System
	cluster *pard.Cluster // nil for a single server
	// lc are the latency-critical tenants, one per server.
	lc []*pard.Memcached
	// guarded is set when every server loaded llc_guard, which must fire.
	guarded bool
	// ops is the operator block run after each step (observe only).
	ops func(step int, tr *tracer, parent int) error
	// exportBytes counts bytes rendered by the operator block's scrapes.
	exportBytes byteCounter
}

// run advances the whole instance by d of simulated time.
func (r *rig) run(d pard.Tick) {
	if r.cluster != nil {
		r.cluster.Run(d)
		return
	}
	r.servers[0].Run(d)
}

// digest is the instance's architectural end state (pard.StateDigest,
// extended over the fabric for clusters).
func (r *rig) digest() string {
	if r.cluster != nil {
		return r.cluster.Digest()
	}
	return pard.StateDigest(r.servers)
}

// colocateConfig is the Figure 8/9 server: Table 2 hardware with the
// statistics window fig8 calibrates its trigger against.
func colocateConfig() pard.Config {
	cfg := pard.DefaultConfig()
	cfg.SampleInterval = 50 * pard.Microsecond
	return cfg
}

// provisionColocate installs fig8's co-location on one server: the
// calibrated memcached in LDom0 (high memory priority, high row buffer),
// llc_guard, and STREAM in LDoms 1-3 on cores 1-3. The load is fig8's
// 17.5 KRPS point rather than fig9's 20: at 20 KRPS the request queue
// is a near-critical random walk, and the backlog check fails on some
// seeds.
func provisionColocate(sys *pard.System, seed int64, policy string) (*pard.Memcached, error) {
	if _, err := sys.CreateLDom(pard.LDomConfig{
		Name: "memcached", Cores: []int{0},
		MemBase: 0, MemSize: 2 << 30, Priority: 1, RowBuf: 1,
	}); err != nil {
		return nil, err
	}
	if err := sys.LoadPolicy("llc_guard", policy); err != nil {
		return nil, fmt.Errorf("loading llc_guard: %w", err)
	}
	mc := pard.NewMemcached(pard.MemcachedConfig{
		RPS:            17500,
		ComputeCycles:  66000,
		Accesses:       800,
		FootprintBytes: 2304 << 10,
		Seed:           seed,
	})
	sys.RunWorkload(0, mc)
	for i := 1; i <= 3; i++ {
		if _, err := sys.CreateLDom(pard.LDomConfig{
			Name: "stream", Cores: []int{i},
			MemBase: uint64(i) * (2 << 30), MemSize: 2 << 30,
		}); err != nil {
			return nil, err
		}
		sys.RunWorkload(i, pard.NewSTREAM(0))
	}
	return mc, nil
}

func buildColocate(seed int64, policy string, tr *tracer) (*rig, error) {
	return buildServer(colocateConfig(), seed, policy, tr)
}

func buildServer(cfg pard.Config, seed int64, policy string, tr *tracer) (*rig, error) {
	var sys *pard.System
	tr.do("setup.build", -1, func() { sys = pard.NewSystem(cfg) })
	var mc *pard.Memcached
	var err error
	tr.do("setup.provision", -1, func() { mc, err = provisionColocate(sys, seed, policy) })
	if err != nil {
		return nil, err
	}
	return &rig{servers: []*pard.System{sys}, lc: []*pard.Memcached{mc}, guarded: true}, nil
}

// buildObserve is colocate's machine with every observation layer
// turned up, plus an operator block after each step.
func buildObserve(seed int64, policy string, tr *tracer) (*rig, error) {
	cfg := colocateConfig()
	cfg.TraceSample = 1
	cfg.Telemetry.Interval = pard.Microsecond
	r, err := buildServer(cfg, seed, policy, tr)
	if err != nil {
		return nil, err
	}
	sys := r.servers[0]
	var reads []string
	for ld := 0; ld < 4; ld++ {
		reads = append(reads,
			fmt.Sprintf("cat /sys/cpa/cpa0/ldoms/ldom%d/statistics/miss_rate", ld),
			fmt.Sprintf("cat /sys/cpa/cpa1/ldoms/ldom%d/statistics/lat_p99_queue", ld))
	}
	masks := [2]string{
		"echo 0x00f0 > /sys/cpa/cpa0/ldoms/ldom1/parameters/waymask",
		"echo 0x00ff > /sys/cpa/cpa0/ldoms/ldom1/parameters/waymask",
	}
	r.ops = func(step int, tr *tracer, parent int) error {
		var err error
		for _, cmd := range reads {
			tr.do("op.sh", parent, func() { _, err = sys.Sh(cmd) })
			if err != nil {
				return fmt.Errorf("%s: %w", cmd, err)
			}
		}
		tr.do("op.export", parent, func() { err = telemetry.WritePrometheus(&r.exportBytes, sys.Telemetry, sys.Journal) })
		if err != nil {
			return fmt.Errorf("prometheus render: %w", err)
		}
		if step%2 != 0 {
			return nil
		}
		tr.do("op.reload", parent, func() { err = sys.ReloadPolicy("llc_guard", policy) })
		if err != nil {
			return fmt.Errorf("reloading llc_guard: %w", err)
		}
		cmd := masks[(step/2)%2]
		tr.do("op.write", parent, func() { _, err = sys.Sh(cmd) })
		if err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
		return nil
	}
	return r, nil
}

// byteCounter discards what it is given and counts the bytes.
type byteCounter uint64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// buildClusterFabric is 4 racks x 2 two-core servers behind one spine
// with WFQ egress at 10 Gb/s, on 2 shards driven by 2 workers. Each
// server runs a light memcached in a vNIC LDom and pumps 1500 B frames
// every 3 us (plus a per-server skew) to its peer in the next rack.
func buildClusterFabric(seed int64, _ string, tr *tracer) (*rig, error) {
	srv := pard.DefaultConfig()
	srv.Cores = 2
	var c *pard.Cluster
	var err error
	tr.do("setup.build", -1, func() {
		c, err = pard.NewCluster(pard.ClusterConfig{
			Racks: 4, ServersPerRack: 2, Spines: 1,
			Shards: 2, Workers: 2,
			SwitchBytesPerSec: 1.25e9,
			Server:            srv,
		})
	})
	if err != nil {
		return nil, err
	}
	r := &rig{servers: c.Servers, cluster: c}
	tr.do("setup.provision", -1, func() { err = provisionFabric(c, r, seed) })
	if err != nil {
		return nil, err
	}
	return r, nil
}

func provisionFabric(c *pard.Cluster, r *rig, seed int64) error {
	n := len(c.Servers)
	lds := make([]*pard.LDom, n)
	for gi, s := range c.Servers {
		mac := uint64(0xA0 + gi)
		ld, err := s.CreateLDom(pard.LDomConfig{
			Name: "svc", Cores: []int{0}, MemBase: 0, MemSize: 2 << 30,
			MAC: mac, NICBuf: 0x1000,
		})
		if err != nil {
			return err
		}
		lds[gi] = ld
		if err := c.BindServerMAC(mac, gi); err != nil {
			return err
		}
		// A tenth of fig8's probes per request keeps the memory
		// hierarchy light here, so this workload isolates the network.
		mc := pard.NewMemcached(pard.MemcachedConfig{
			RPS:            2000,
			ComputeCycles:  66000,
			Accesses:       80,
			FootprintBytes: 256 << 10,
			Seed:           seed + int64(gi),
		})
		s.RunWorkload(0, mc)
		r.lc = append(r.lc, mc)
	}
	spr := c.Topo.ServersPerRack
	for gi, s := range c.Servers {
		dst := ((c.Topo.RackOf(gi)+1)%c.Topo.Racks)*spr + gi%spr
		flow := uint64(200 + gi)
		if err := c.Servers[dst].NIC.BindFlow(flow, lds[dst].DSID); err != nil {
			return err
		}
		c.BindFlow(flow, lds[dst].DSID)
		// Per-server phase and period skews keep deliveries from tying
		// at any receiver, so the digest does not depend on the shard
		// count (DESIGN.md §11).
		s, ds, mac := s, lds[gi].DSID, uint64(0xA0+dst)
		period := 3*pard.Microsecond + pard.Tick(gi)*13*pard.Nanosecond
		var pump func()
		pump = func() {
			s.NIC.SendFrame(ds, mac, flow, 0x4000, 1500)
			s.Engine.Schedule(period, pump)
		}
		s.Engine.At(pard.Microsecond+pard.Tick(gi)*377*pard.Nanosecond, pump)
	}
	return nil
}

// buildRack8 is 2 racks x 4 colocate servers on one engine behind
// passthrough switches, with no frames.
func buildRack8(seed int64, policy string, tr *tracer) (*rig, error) {
	var c *pard.Cluster
	var err error
	tr.do("setup.build", -1, func() {
		c, err = pard.NewCluster(pard.ClusterConfig{
			Racks: 2, ServersPerRack: 4, Shards: 1,
			Server: colocateConfig(),
		})
	})
	if err != nil {
		return nil, err
	}
	r := &rig{servers: c.Servers, cluster: c, guarded: true}
	tr.do("setup.provision", -1, func() {
		for gi, s := range c.Servers {
			var mc *pard.Memcached
			if mc, err = provisionColocate(s, seed+int64(gi), policy); err != nil {
				err = fmt.Errorf("server %d: %w", gi, err)
				return
			}
			r.lc = append(r.lc, mc)
		}
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}
