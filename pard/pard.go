// Package pard is the public API of the PARD reproduction: it assembles
// the full programmable-architecture server of the paper — tagged cores,
// private L1s, a shared LLC with its control plane, a DDR3 memory
// controller with its control plane, the I/O bridge, IDE, NIC and APIC,
// and the platform resource manager running the device-file-tree
// firmware — and exposes LDom lifecycle, the operator shell and the
// measured statistics.
//
// Quickstart:
//
//	sys := pard.NewSystem(pard.DefaultConfig())
//	ld, _ := sys.CreateLDom(pard.LDomConfig{Name: "svc", Cores: []int{0}, MemBase: 0})
//	sys.RunWorkload(0, pard.NewSTREAM(0))
//	sys.Run(10 * pard.Millisecond)
//	fmt.Println(sys.Firmware.MustSh("cat /sys/cpa/cpa0/ldoms/ldom0/statistics/miss_rate"))
//	_ = ld
package pard

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/iodev"
	"repro/internal/osched"
	"repro/internal/policy"
	"repro/internal/prm"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xbar"
)

// Re-exported fundamental types, so programs against this package rarely
// need the internal packages.
type (
	// DSID tags every intra-computer-network packet with its LDom.
	DSID = core.DSID
	// Tick is simulation time: 1 tick = 1 ps.
	Tick = sim.Tick
	// Workload is a core's operation-stream generator.
	Workload = workload.Generator
	// Memcached is the latency-critical service model.
	Memcached = workload.Memcached
	// MemcachedConfig parameterizes the memcached model.
	MemcachedConfig = workload.MemcachedConfig
	// Stream is the STREAM-triad generator.
	Stream = workload.Stream
	// CacheFlush is the LLC-thrashing microbenchmark.
	CacheFlush = workload.CacheFlush
	// DiskCopy is the dd-style disk workload.
	DiskCopy = workload.DiskCopy
	// LDom is a created logical domain.
	LDom = prm.LDom
	// Process is one schedulable entity of the guest-OS scheduler
	// (process-level DiffServ).
	Process = osched.Process
	// Scheduler multiplexes tagged processes on one core.
	Scheduler = osched.Scheduler
)

// Duration constants re-exported for callers.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Workload constructors re-exported from internal/workload, plus the
// guest-OS scheduler for process-level DiffServ.
var (
	NewMemcached = workload.NewMemcached
	NewSTREAM    = workload.NewSTREAM
	NewLBM       = workload.NewLBM
	NewLeslie3d  = workload.NewLeslie3d
	NewScheduler = osched.New
)

// NICWindowBase is where the NIC's PIO window starts in I/O space; the
// IDE window occupies [0, NICWindowBase).
const NICWindowBase = 1 << 40

// System is one assembled PARD server.
type System struct {
	Cfg    Config
	Engine *sim.Engine
	IDs    *core.IDSource

	Cores []*cpu.Core
	L1s   []*cache.Cache
	LLC   *cache.Cache
	Xbar  *xbar.Crossbar // nil unless Config.Crossbar
	Mem   *dram.Controller

	Bridge *iodev.Bridge
	IDE    *iodev.IDE
	NIC    *iodev.NIC
	APIC   *iodev.APIC

	// MemProbe observes all memory-controller traffic when
	// Config.ProbeMemory is set; nil otherwise.
	MemProbe *trace.Probe

	// Recorder is the ICN flight recorder when Config.TraceSample > 0;
	// nil otherwise (every instrumented hop's recorder call is nil-safe,
	// so the disabled system pays a nil check per hook).
	Recorder *trace.Recorder

	Firmware *prm.Firmware

	// Telemetry is the time-series registry scraping every plane stat
	// and PRM counter; Journal the control-plane audit log. Both are nil
	// when Config.Telemetry.Disable is set (all recording call sites are
	// nil-safe).
	Telemetry *telemetry.Registry
	Journal   *telemetry.Journal

	// ConsoleOrigin labels journal events caused by operator commands
	// dispatched through this System (Sh, policy loads). Defaults to
	// "console"; pardctl overrides it with "pardctl".
	ConsoleOrigin string

	// InterruptsByCore counts APIC deliveries per core.
	InterruptsByCore []uint64
}

// NewSystem builds and wires the server described by cfg and boots the
// PRM firmware with all five control planes mounted
// (cpa0=LLC, cpa1=memory, cpa2=I/O bridge, cpa3=IDE, cpa4=NIC).
func NewSystem(cfg Config) *System {
	ids := core.NewIDSource()
	return newSystemOn(cfg, sim.NewEngine(), ids)
}

// newSystemOn builds a server on a given engine and packet-id source,
// so several servers can share one simulation (see NewCluster).
func newSystemOn(cfg Config, e *sim.Engine, ids *core.IDSource) *System {
	cfg.fillDefaults()
	s := &System{
		Cfg:              cfg,
		Engine:           e,
		IDs:              ids,
		InterruptsByCore: make([]uint64, cfg.Cores),
	}

	s.Mem = dram.New(e, s.IDs, cfg.Mem)
	memPath := core.Target(s.Mem)
	if cfg.ProbeMemory {
		s.MemProbe = trace.NewProbe("mem", s.Mem)
		memPath = s.MemProbe
	}
	coreClock := sim.NewClock(e, cfg.CorePeriod)
	s.LLC = cache.New(e, coreClock, s.IDs, cfg.LLC, memPath)

	s.APIC = iodev.NewAPIC(e, func(coreID int, ds core.DSID, vector uint8) {
		if coreID >= 0 && coreID < len(s.InterruptsByCore) {
			s.InterruptsByCore[coreID]++
			s.Cores[coreID].Interrupt(vector)
		}
	})
	s.Bridge = iodev.NewBridge(e, memPath)
	s.IDE = iodev.NewIDE(e, s.IDs, cfg.IDE, s.Bridge.DMATarget(), s.APIC)
	s.NIC = iodev.NewNIC(e, s.IDs, cfg.NIC, s.Bridge.DMATarget(), s.APIC)
	mustAttach(s.Bridge, "ide", 0, NICWindowBase, s.IDE)
	mustAttach(s.Bridge, "nic", NICWindowBase, 1<<40, s.NIC)

	l1Next := core.Target(s.LLC)
	if cfg.Crossbar {
		s.Xbar = xbar.New(e, coreClock, xbar.DefaultConfig(), s.LLC)
		l1Next = s.Xbar
	}
	for i := 0; i < cfg.Cores; i++ {
		l1cfg := cfg.L1
		l1cfg.Name = l1Name(i)
		l1 := cache.New(e, coreClock, s.IDs, l1cfg, l1Next)
		s.L1s = append(s.L1s, l1)
		c := cpu.New(i, coreClock, s.IDs, l1, s.Bridge)
		c.Window = cfg.CoreWindow
		s.Cores = append(s.Cores, c)
	}

	s.Firmware = prm.NewFirmware(e, cfg.PRM, platform{s})
	s.Firmware.Mount(core.NewCPA(s.LLC.Plane(), 0))
	s.Firmware.Mount(core.NewCPA(s.Mem.Plane(), 1))
	s.Firmware.Mount(core.NewCPA(s.Bridge.Plane(), 2))
	s.Firmware.Mount(core.NewCPA(s.IDE.Plane(), 3))
	s.Firmware.Mount(core.NewCPA(s.NIC.Plane(), 4))
	if s.Xbar != nil {
		s.Firmware.Mount(core.NewCPA(s.Xbar.Plane(), 5))
	}
	s.ConsoleOrigin = "console"
	if !cfg.Telemetry.Disable {
		s.attachTelemetry()
	}
	if cfg.TraceSample > 0 {
		s.attachRecorder(cfg.TraceSample)
	}
	return s
}

// attachRecorder builds the flight recorder, wires it into every hop
// in a fixed order (hop ids are part of the trace's determinism
// contract), and registers the per-LDom latency-percentile statistics
// files for each control plane's resource.
func (s *System) attachRecorder(sampleEvery uint64) {
	rec := trace.NewRecorder(s.Engine, sampleEvery)
	s.Recorder = rec
	memHop := s.Mem.AttachRecorder(rec)
	llcHop := s.LLC.AttachRecorder(rec)
	xbarHop := -1
	if s.Xbar != nil {
		xbarHop = s.Xbar.AttachRecorder(rec)
	}
	for _, l1 := range s.L1s {
		l1.AttachRecorder(rec)
	}
	for _, c := range s.Cores {
		c.AttachRecorder(rec)
	}
	bridgeHop := s.Bridge.AttachRecorder(rec)
	ideHop := s.IDE.AttachRecorder(rec)
	nicHop := s.NIC.AttachRecorder(rec)

	// lat_{p50,p99}_{queue,service} under each CPA's LDom statistics,
	// reading the recorder's per-(hop, DS-id) histograms. Values are in
	// ticks (1 tick = 1 ps).
	hopByCPA := []struct {
		cpa int
		hop int
	}{
		{0, llcHop}, {1, memHop}, {2, bridgeHop}, {3, ideHop}, {4, nicHop},
	}
	if xbarHop >= 0 {
		hopByCPA = append(hopByCPA, struct{ cpa, hop int }{5, xbarHop})
	}
	specs := []struct {
		name    string
		service bool
		q       float64
	}{
		{"lat_p50_queue", false, 0.50},
		{"lat_p99_queue", false, 0.99},
		{"lat_p50_service", true, 0.50},
		{"lat_p99_service", true, 0.99},
	}
	for _, hc := range hopByCPA {
		hop := hc.hop
		for _, sp := range specs {
			sp := sp
			err := s.Firmware.AddLDomStat(hc.cpa, sp.name, func(ds core.DSID) (string, error) {
				return strconv.FormatUint(rec.Percentile(hop, ds, sp.service, sp.q), 10), nil
			})
			if err != nil {
				panic("pard: " + err.Error())
			}
			if s.Telemetry != nil {
				s.Telemetry.AddPlaneGauge("cpa"+strconv.Itoa(hc.cpa), sp.name, func(ds core.DSID) float64 {
					return float64(rec.Percentile(hop, ds, sp.service, sp.q))
				})
			}
		}
	}
}

func mustAttach(b *iodev.Bridge, name string, base, size uint64, dev core.Target) {
	if err := b.Attach(name, base, size, dev); err != nil {
		panic("pard: " + err.Error())
	}
}

func l1Name(i int) string { return "l1." + string(rune('0'+i)) }

// platform adapts System to the firmware's hardware surface.
type platform struct{ s *System }

func (p platform) SetCoreTag(coreID int, ds core.DSID) {
	if coreID >= 0 && coreID < len(p.s.Cores) {
		p.s.Cores[coreID].Tag.Set(ds)
	}
}
func (p platform) StopCore(coreID int) {
	if coreID >= 0 && coreID < len(p.s.Cores) {
		p.s.Cores[coreID].Stop()
	}
}
func (p platform) RouteInterrupt(ds core.DSID, vector uint8, coreID int) {
	p.s.APIC.SetRoute(ds, vector, coreID)
}
func (p platform) ClearRoutes(ds core.DSID) { p.s.APIC.ClearRoutes(ds) }
func (p platform) BindVNIC(mac uint64, ds core.DSID, buf uint64) error {
	return p.s.NIC.BindVNIC(mac, ds, buf)
}
func (p platform) UnbindVNIC(mac uint64) { p.s.NIC.UnbindVNIC(mac) }
func (p platform) FlushLDom(ds core.DSID) {
	for _, l1 := range p.s.L1s {
		l1.InvalidateDSID(ds)
	}
	p.s.LLC.InvalidateDSID(ds)
}

// LDomConfig describes a logical domain to create.
type LDomConfig struct {
	Name     string
	Cores    []int
	MemBase  uint64 // DRAM-physical base of the LDom's window
	MemSize  uint64
	Priority uint64 // memory priority (larger = higher)
	RowBuf   uint64 // memory row-buffer id (1 = high-priority buffer)
	MAC      uint64 // nonzero binds a vNIC
	NICBuf   uint64
	// DiskQuota, nonzero, is this LDom's IDE bandwidth percentage.
	DiskQuota uint64
}

// CreateLDom partitions the server: allocates a DS-id, programs every
// control plane, tags the LDom's cores and routes its interrupts —
// fully hardware-supported virtualization, no hypervisor (paper §7.1.1).
func (s *System) CreateLDom(cfg LDomConfig) (*LDom, error) {
	var ld *prm.LDom
	var err error
	s.Firmware.WithOrigin(s.originLabel(), func() {
		ld, err = s.Firmware.CreateLDom(prm.LDomSpec{
			Name: cfg.Name, Cores: cfg.Cores,
			MemBase: cfg.MemBase, MemSize: cfg.MemSize,
			Priority: cfg.Priority, RowBuf: cfg.RowBuf,
			MAC: cfg.MAC, NICBuf: cfg.NICBuf,
		})
		if err == nil && cfg.DiskQuota != 0 {
			s.IDE.Plane().SetParam(ld.DSID, iodev.ParamBandwidth, cfg.DiskQuota)
		}
	})
	if err != nil {
		return nil, err
	}
	return ld, nil
}

// LoadPolicy compiles source against the live control planes and
// installs it as a named policy set (see internal/policy for the
// language). Load fails — with position-accurate errors and nothing
// installed — on unknown names, conflicting rules or exhausted
// trigger slots.
func (s *System) LoadPolicy(name, source string) error {
	var err error
	s.Firmware.WithOrigin(s.originLabel(), func() {
		err = s.Firmware.LoadPolicy(name, source)
	})
	return err
}

// ReloadPolicy atomically replaces a loaded policy set with a new
// source: the replacement is fully validated before the old rules are
// torn down, so a bad reload leaves the running policy untouched.
func (s *System) ReloadPolicy(name, source string) error {
	var err error
	s.Firmware.WithOrigin(s.originLabel(), func() {
		err = s.Firmware.ReloadPolicy(name, source)
	})
	return err
}

// ApplyPolicyFile loads (or hot-reloads) a .pard policy file; the
// policy is named after the file's base name.
func (s *System) ApplyPolicyFile(path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return s.ReloadPolicy(policyNameFromPath(path), string(src))
}

// LintPolicyFile validates a .pard policy file and, when it compiles,
// runs pardcheck — the abstract interpreter in internal/policy — over
// the compiled program. The returned issues are advisory (unreachable
// rules, dead triggers, undamped raise/lower pairs); the error is the
// hard parse/typecheck verdict.
func (s *System) LintPolicyFile(path string) ([]policy.Issue, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := s.Firmware.ValidatePolicy(filepath.Base(path), string(src))
	if err != nil {
		return nil, err
	}
	return policy.Lint(prog), nil
}

func policyNameFromPath(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".pard")
}

// RunWorkload starts gen on a core.
func (s *System) RunWorkload(coreID int, gen Workload) {
	s.Cores[coreID].Run(gen)
}

// Run advances the simulation by d.
func (s *System) Run(d Tick) { s.Engine.Run(s.Engine.Now() + d) }

// Sh executes a firmware shell command (cat/echo/ls/tree/pardtrigger).
// Parameter writes it causes are journaled under ConsoleOrigin.
func (s *System) Sh(cmd string) (string, error) {
	var out string
	var err error
	s.Firmware.WithOrigin(s.originLabel(), func() {
		out, err = s.Firmware.Sh(cmd)
	})
	return out, err
}

// originLabel is the journal origin for operator commands entering
// through this System.
func (s *System) originLabel() string {
	if s.ConsoleOrigin == "" {
		return "console"
	}
	return s.ConsoleOrigin
}

// CPUUtilization returns the mean busy fraction across all cores.
func (s *System) CPUUtilization() float64 {
	if len(s.Cores) == 0 {
		return 0
	}
	var sum float64
	for _, c := range s.Cores {
		sum += c.Utilization()
	}
	return sum / float64(len(s.Cores))
}

// LLCOccupancyBytes returns an LDom's LLC footprint (Figure 7's y-axis).
func (s *System) LLCOccupancyBytes(ds DSID) uint64 { return s.LLC.OccupancyBytes(ds) }

// MemBandwidthMBs returns an LDom's last-window DRAM bandwidth.
func (s *System) MemBandwidthMBs(ds DSID) uint64 { return s.Mem.BandwidthMBs(ds) }
