package pard

import (
	"strings"
	"testing"

	"repro/internal/iodev"
	"repro/internal/workload"
)

func TestSystemBootsWithFiveControlPlanes(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	out, err := sys.Sh("ls /sys/cpa")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cpa0/", "cpa1/", "cpa2/", "cpa3/", "cpa4/"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %s in %q", want, out)
		}
	}
	idents := map[string]string{
		"cpa0": "CACHE_CP", "cpa1": "MEM_CP", "cpa2": "BRIDGE_CP",
		"cpa3": "IDE_CP", "cpa4": "NIC_CP",
	}
	for cpa, want := range idents {
		got := sys.Firmware.MustSh("cat /sys/cpa/" + cpa + "/ident")
		if got != want {
			t.Fatalf("%s ident = %q, want %q", cpa, got, want)
		}
	}
}

func TestCreateLDomTagsCoresAndMapsMemory(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	ld, err := sys.CreateLDom(LDomConfig{
		Name: "svc", Cores: []int{0, 1}, MemBase: 2 << 30, MemSize: 2 << 30, Priority: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Cores[0].Tag.Get() != ld.DSID || sys.Cores[1].Tag.Get() != ld.DSID {
		t.Fatal("core tag registers not programmed")
	}
	got := sys.Firmware.MustSh("cat /sys/cpa/cpa1/ldoms/ldom0/parameters/addr_base")
	if got != "2147483648" {
		t.Fatalf("addr_base = %q", got)
	}
}

// A create that fails (here on a MAC another LDom holds) leaves
// nothing behind: no LDom, core tag, plane row, device-tree path, vNIC
// binding or journal event, and it consumes no DS-id.
func TestFailedCreateLDomLeavesNothing(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	if _, err := sys.CreateLDom(LDomConfig{Name: "a", Cores: []int{0}, MAC: 0xA0, NICBuf: 0x1000}); err != nil {
		t.Fatal(err)
	}
	events := sys.Journal.NextSeq()
	if _, err := sys.CreateLDom(LDomConfig{Name: "b", Cores: []int{1}, MemBase: 2 << 30, MAC: 0xA0, NICBuf: 0x2000}); err == nil {
		t.Fatal("a second LDom bound MAC 0xA0")
	}
	if lds := sys.Firmware.LDoms(); len(lds) != 1 || lds[0].Spec.Name != "a" {
		t.Errorf("%d LDoms after the failed create, want a alone", len(lds))
	}
	if got := sys.Cores[1].Tag.Get(); got != 0 {
		t.Errorf("core 1 tag = %v, want ds0", got)
	}
	for i := 0; ; i++ {
		cpa, err := sys.Firmware.CPA(i)
		if err != nil {
			break
		}
		if cpa.Plane.Params().HasRow(1) || cpa.Plane.Stats().HasRow(1) {
			t.Errorf("cpa%d kept a ds1 row", i)
		}
	}
	if sys.Firmware.FS().Exists("/sys/cpa/cpa0/ldoms/ldom1") {
		t.Error("/sys/cpa/cpa0/ldoms/ldom1 survived the failed create")
	}
	if got := sys.NIC.Plane().Param(0, iodev.ParamVNICMac); got != 0xA0 {
		t.Errorf("ldom a's vNIC MAC = %#x, want 0xa0", got)
	}
	creates := 0
	for i := 0; i < sys.Journal.Len(); i++ {
		if sys.Journal.At(i).Kind == "ldom_create" {
			creates++
		}
	}
	if creates != 1 || sys.Journal.NextSeq() != events {
		t.Errorf("journal: %d ldom_create, %d events recorded by the failed create; want 1 and 0",
			creates, sys.Journal.NextSeq()-events)
	}
	ld, err := sys.CreateLDom(LDomConfig{Name: "b", Cores: []int{1}, MemBase: 2 << 30, MAC: 0xB0, NICBuf: 0x2000})
	if err != nil || ld.DSID != 1 {
		t.Fatalf("retry: ldom %v, err %v; want ds1", ld, err)
	}
}

func TestWorkloadTrafficShowsInControlPlaneStats(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	ld, _ := sys.CreateLDom(LDomConfig{Name: "a", Cores: []int{0}})
	sys.RunWorkload(0, NewSTREAM(0))
	sys.Run(2 * Millisecond)
	if sys.LLCOccupancyBytes(ld.DSID) == 0 {
		t.Fatal("no LLC occupancy after 2ms of STREAM")
	}
	hits := sys.Firmware.MustSh("cat /sys/cpa/cpa0/ldoms/ldom0/statistics/hit_cnt")
	misses := sys.Firmware.MustSh("cat /sys/cpa/cpa0/ldoms/ldom0/statistics/miss_cnt")
	if hits == "0" && misses == "0" {
		t.Fatal("no LLC traffic accounted")
	}
	if sys.MemBandwidthMBs(ld.DSID) == 0 {
		t.Fatal("no memory bandwidth accounted")
	}
}

func TestTwoLDomsOverlappingGuestAddresses(t *testing.T) {
	// Fully hardware-supported virtualization: both LDoms use guest
	// physical addresses starting at 0; tags plus the memory address
	// map keep them apart (paper §4.2 footnote 4).
	sys := NewSystem(DefaultConfig())
	sys.CreateLDom(LDomConfig{Name: "a", Cores: []int{0}, MemBase: 0})
	sys.CreateLDom(LDomConfig{Name: "b", Cores: []int{1}, MemBase: 4 << 30})
	sys.RunWorkload(0, &workload.Stream{Base: 0, Footprint: 1 << 20, Compute: 2})
	sys.RunWorkload(1, &workload.Stream{Base: 0, Footprint: 1 << 20, Compute: 2})
	sys.Run(Millisecond)
	if sys.LLCOccupancyBytes(0) == 0 || sys.LLCOccupancyBytes(1) == 0 {
		t.Fatal("both LDoms should hold LLC blocks")
	}
}

func TestDiskQuotaThroughLDomConfig(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	sys.CreateLDom(LDomConfig{Name: "fast", Cores: []int{0}, DiskQuota: 80})
	got := sys.Firmware.MustSh("cat /sys/cpa/cpa3/ldoms/ldom0/parameters/bandwidth")
	if got != "80" {
		t.Fatalf("disk quota = %q", got)
	}
}

func TestEndToEndTriggerAdjustsPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LLC.SizeBytes = 256 * 1024 // small LLC so thrash shows fast
	cfg.SampleInterval = 50 * Microsecond
	sys := NewSystem(cfg)
	mc, _ := sys.CreateLDom(LDomConfig{Name: "mc", Cores: []int{0}, Priority: 1})
	sys.CreateLDom(LDomConfig{Name: "bg", Cores: []int{1}})

	sys.Firmware.MustSh("pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,300 -action=llc_grow_to_half")

	// The service misses heavily once the co-runner thrashes the LLC.
	sys.RunWorkload(0, &workload.Stream{Base: 0, Footprint: 100 << 10, Compute: 4})
	sys.RunWorkload(1, &workload.CacheFlush{Base: 1 << 30, Footprint: 4 << 20, Seed: 1})
	sys.Run(5 * Millisecond)

	mask := sys.Firmware.MustSh("cat /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask")
	if mask != "0xff00" {
		t.Fatalf("trigger did not repartition: ldom0 waymask = %s (triggers fired: %d, handled: %d)",
			mask, sys.LLC.Plane().TriggersFired, sys.Firmware.TriggersHandled)
	}
	if sys.Firmware.TriggersHandled == 0 {
		t.Fatal("firmware never handled the trigger")
	}
	_ = mc
}

func TestDiskWorkloadEndToEnd(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	ld, _ := sys.CreateLDom(LDomConfig{Name: "dd", Cores: []int{0}})
	sys.RunWorkload(0, &workload.DiskCopy{TotalBytes: 4 << 20, ChunkBytes: 256 << 10, Write: true, Compute: 100})
	sys.Run(100 * Millisecond)
	served := sys.Firmware.MustSh("cat /sys/cpa/cpa3/ldoms/ldom0/statistics/serv_bytes")
	if served != "4194304" {
		t.Fatalf("serv_bytes = %q, want full 4 MiB", served)
	}
	// Disk completion interrupts were routed to the LDom's core 0.
	if sys.InterruptsByCore[0] == 0 {
		t.Fatal("no disk interrupts delivered to core 0")
	}
	// DMA traffic was accounted at the bridge for this LDom.
	dma := sys.Firmware.MustSh("cat /sys/cpa/cpa2/ldoms/ldom0/statistics/dma_bytes")
	if dma == "0" {
		t.Fatal("bridge saw no DMA bytes")
	}
	_ = ld
}

func TestUtilizationAccounting(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	sys.CreateLDom(LDomConfig{Name: "a", Cores: []int{0}})
	sys.RunWorkload(0, &workload.Spin{Quantum: 100})
	sys.Run(Millisecond)
	// 1 of 4 cores busy: 25% total utilization, the paper's solo-mode
	// number.
	u := sys.CPUUtilization()
	if u < 0.24 || u > 0.26 {
		t.Fatalf("utilization = %.3f, want ~0.25", u)
	}
}

func TestConfigFillDefaults(t *testing.T) {
	sys := NewSystem(Config{})
	if len(sys.Cores) != 4 {
		t.Fatalf("default cores = %d", len(sys.Cores))
	}
	if sys.LLC.Config().SizeBytes != 4<<20 {
		t.Fatalf("default LLC = %d bytes", sys.LLC.Config().SizeBytes)
	}
}

func TestProcessLevelDiffServOnSystem(t *testing.T) {
	// Public-API path for the osched extension: two tagged processes
	// share core 0; both show up independently in the LLC control
	// plane's statistics.
	sys := NewSystem(DefaultConfig())
	sys.CreateLDom(LDomConfig{Name: "host", Cores: []int{0}})
	procs := []*Process{
		{Name: "p30", DSID: 30, Gen: &workload.Stream{Base: 0, Footprint: 256 << 10, Compute: 3}},
		{Name: "p31", DSID: 31, Gen: &workload.Stream{Base: 1 << 30, Footprint: 256 << 10, Compute: 3}},
	}
	sched := NewScheduler(&sys.Cores[0].Tag, 200*Microsecond, 500, procs...)
	sys.RunWorkload(0, sched)
	sys.Run(3 * Millisecond)
	for _, ds := range []DSID{30, 31} {
		total := sys.LLC.Plane().Stat(ds, "hit_cnt") + sys.LLC.Plane().Stat(ds, "miss_cnt")
		if total == 0 {
			t.Fatalf("process ds%d invisible to the LLC control plane", ds)
		}
	}
	if sched.ContextSwitches < 5 {
		t.Fatalf("context switches = %d", sched.ContextSwitches)
	}
}

func TestSecurityPolicyEndToEnd(t *testing.T) {
	// Open problem "how to design and deploy security policy on PARD
	// servers": a bounded LDom that strays outside its memory window
	// trips a violations trigger, and the quarantine action demotes it.
	sys := NewSystem(DefaultConfig())
	sys.CreateLDom(LDomConfig{Name: "rogue", Cores: []int{0}, MemBase: 0, MemSize: 1 << 20, Priority: 1})
	sys.Firmware.MustSh("pardtrigger cpa1 -ldom=0 -stats=violations -cond=gt,0 -action=quarantine")

	// The workload walks far beyond its 1 MiB window.
	sys.RunWorkload(0, &workload.CacheFlush{Base: 0, Footprint: 64 << 20, Seed: 9})
	sys.Run(Millisecond)

	if v := sys.Mem.Violations; v == 0 {
		t.Fatal("no violations recorded")
	}
	if sys.Firmware.TriggersHandled == 0 {
		t.Fatal("violation trigger never handled")
	}
	if got := sys.Firmware.MustSh("cat /sys/cpa/cpa1/ldoms/ldom0/parameters/priority"); got != "0" {
		t.Fatalf("rogue LDom priority = %s after quarantine", got)
	}
	if got := sys.Firmware.MustSh("cat /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask"); got != "0x1" {
		t.Fatalf("rogue LDom waymask = %s after quarantine", got)
	}
}

func TestCrossResourceTriggerAction(t *testing.T) {
	// Paper §3: "thanks to the centralized PRM, trigger and action can
	// be designated to different resources. For instance, if a trigger
	// is created to monitor memory bandwidth, its action can be defined
	// to adjust LLC capacity."
	cfg := DefaultConfig()
	cfg.SampleInterval = 50 * Microsecond
	sys := NewSystem(cfg)
	sys.CreateLDom(LDomConfig{Name: "svc", Cores: []int{0}})
	sys.CreateLDom(LDomConfig{Name: "bg", Cores: []int{1}})

	// Trigger on the MEMORY plane (cpa1), action on the LLC.
	sys.Firmware.MustSh(
		"pardtrigger cpa1 -ldom=0 -stats=bandwidth -cond=gt,100 -action=llc_grow_to_half")

	// Heavy traffic pushes ldom0's memory bandwidth over 100 MB/s.
	sys.RunWorkload(0, &workload.CacheFlush{Base: 0, Footprint: 16 << 20, Seed: 1})
	sys.Run(3 * Millisecond)

	if sys.Firmware.TriggersHandled == 0 {
		t.Fatal("memory-plane trigger never fired")
	}
	mask := sys.Firmware.MustSh("cat /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask")
	if mask != "0xff00" {
		t.Fatalf("LLC action did not run from memory trigger: waymask = %s", mask)
	}
	other := sys.Firmware.MustSh("cat /sys/cpa/cpa0/ldoms/ldom1/parameters/waymask")
	if other != "0xff" {
		t.Fatalf("other LDom not repartitioned: %s", other)
	}
}

func TestMemProbeObservesTaggedTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeMemory = true
	sys := NewSystem(cfg)
	ld, _ := sys.CreateLDom(LDomConfig{Name: "a", Cores: []int{0}})
	sys.RunWorkload(0, NewSTREAM(0))
	sys.Run(Millisecond)
	if sys.MemProbe == nil || sys.MemProbe.Total() == 0 {
		t.Fatal("memory probe saw nothing")
	}
	if sys.MemProbe.CountByDSID(ld.DSID) == 0 {
		t.Fatal("probe did not attribute traffic to the LDom's DS-id")
	}
	// Default systems carry no probe.
	plain := NewSystem(DefaultConfig())
	if plain.MemProbe != nil {
		t.Fatal("probe present without opt-in")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() string {
		sys := NewSystem(DefaultConfig())
		sys.CreateLDom(LDomConfig{Name: "a", Cores: []int{0}})
		sys.CreateLDom(LDomConfig{Name: "b", Cores: []int{1}})
		sys.RunWorkload(0, NewSTREAM(0))
		sys.RunWorkload(1, &workload.CacheFlush{Base: 1 << 30, Footprint: 8 << 20, Seed: 7})
		sys.Run(Millisecond)
		return sys.Firmware.MustSh("cat /sys/cpa/cpa0/ldoms/ldom0/statistics/miss_cnt") + "/" +
			sys.Firmware.MustSh("cat /sys/cpa/cpa1/ldoms/ldom1/statistics/serv_cnt")
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %q vs %q", a, b)
	}
}
