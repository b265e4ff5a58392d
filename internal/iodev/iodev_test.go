package iodev

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// sinkMem completes memory packets instantly, recording them.
type sinkMem struct {
	e    *sim.Engine
	pkts []*core.Packet
}

func (m *sinkMem) Request(p *core.Packet) {
	m.pkts = append(m.pkts, p)
	p.Complete(m.e.Now())
}

func TestDMAEngineTagsAndChunks(t *testing.T) {
	e := sim.NewEngine()
	mem := &sinkMem{e: e}
	d := NewDMAEngine(e, &core.IDSource{}, mem)
	d.Program(7)
	done := false
	d.Transfer(0x1000, 10*1024, true, func() { done = true })
	e.Drain(0)
	if !done {
		t.Fatal("transfer completion callback never ran")
	}
	if len(mem.pkts) != 3 { // 4K + 4K + 2K
		t.Fatalf("%d chunks, want 3", len(mem.pkts))
	}
	var total uint32
	for _, p := range mem.pkts {
		if p.DSID != 7 {
			t.Fatalf("DMA chunk tagged %v, want ds7", p.DSID)
		}
		if p.Kind != core.KindDMAWrite {
			t.Fatalf("chunk kind %v", p.Kind)
		}
		total += p.Size
	}
	if total != 10*1024 {
		t.Fatalf("transferred %d bytes, want 10240", total)
	}
	if d.Transferred != 10*1024 {
		t.Fatalf("Transferred = %d", d.Transferred)
	}
}

func TestDMAEngineZeroBytes(t *testing.T) {
	e := sim.NewEngine()
	d := NewDMAEngine(e, &core.IDSource{}, &sinkMem{e: e})
	done := false
	d.Transfer(0, 0, true, func() { done = true })
	if !done {
		t.Fatal("zero-byte transfer did not complete immediately")
	}
}

func TestAPICRoutesByDSID(t *testing.T) {
	e := sim.NewEngine()
	type delivery struct {
		core   int
		ds     core.DSID
		vector uint8
	}
	var got []delivery
	a := NewAPIC(e, func(c int, ds core.DSID, v uint8) {
		got = append(got, delivery{c, ds, v})
	})
	// Same vector, different DS-ids, different cores: the duplicated
	// route tables steer each LDom's interrupt to its own core.
	a.SetRoute(1, 14, 0)
	a.SetRoute(2, 14, 3)
	for _, ds := range []core.DSID{1, 2} {
		p := core.NewPacket(&core.IDSource{}, core.KindInterrupt, ds, 0, 0, 0)
		p.Vector = 14
		a.Request(p)
	}
	e.Drain(0)
	if len(got) != 2 || got[0].core != 0 || got[1].core != 3 {
		t.Fatalf("deliveries = %+v", got)
	}
	if a.Delivered != 2 {
		t.Fatalf("Delivered = %d", a.Delivered)
	}
}

func TestAPICDropsUnrouted(t *testing.T) {
	e := sim.NewEngine()
	a := NewAPIC(e, nil)
	p := core.NewPacket(&core.IDSource{}, core.KindInterrupt, 9, 0, 0, 0)
	p.Vector = 14
	a.Request(p)
	if a.Dropped != 1 || !p.Completed() {
		t.Fatalf("dropped=%d completed=%v", a.Dropped, p.Completed())
	}
	a.SetRoute(9, 14, 1)
	a.ClearRoutes(9)
	q := core.NewPacket(&core.IDSource{}, core.KindInterrupt, 9, 0, 0, 0)
	q.Vector = 14
	a.Request(q)
	if a.Dropped != 2 {
		t.Fatal("ClearRoutes did not remove the table")
	}
}

func newIDE(t *testing.T) (*sim.Engine, *IDE, *sinkMem) {
	t.Helper()
	e := sim.NewEngine()
	mem := &sinkMem{e: e}
	cfg := DefaultIDEConfig()
	cfg.InterruptVector = 0
	return e, NewIDE(e, &core.IDSource{}, cfg, mem, nil), mem
}

func diskWrite(e *sim.Engine, ide *IDE, ids *core.IDSource, ds core.DSID, bytes uint32) *core.Packet {
	p := core.NewPacket(ids, core.KindPIOWrite, ds, 0, bytes, e.Now())
	ide.Request(p)
	return p
}

func TestIDEServesAndDMAs(t *testing.T) {
	e, ide, mem := newIDE(t)
	ids := &core.IDSource{}
	p := diskWrite(e, ide, ids, 1, 256<<10)
	e.StepUntil(p.Completed)
	if !p.Completed() {
		t.Fatal("disk write never completed")
	}
	// 256 KiB at 200 MiB/s = 1.25 ms? No: 256<<10 / (200<<20) s = 1.22 ms... compute:
	want := sim.Tick(uint64(256<<10) * uint64(sim.Second) / (200 << 20))
	if p.Latency() != want {
		t.Fatalf("latency = %v, want %v", p.Latency(), want)
	}
	e.Run(e.Now() + sim.Millisecond)
	if len(mem.pkts) == 0 {
		t.Fatal("no DMA traffic reached memory")
	}
	for _, q := range mem.pkts {
		if q.DSID != 1 || q.Kind != core.KindDMARead {
			t.Fatalf("DMA packet %v %v, want ds1 DMARead", q.DSID, q.Kind)
		}
	}
}

func TestIDEFairShareByDefault(t *testing.T) {
	e, ide, _ := newIDE(t)
	ids := &core.IDSource{}
	// Two LDoms, equal continuous demand.
	var done1, done2 uint64
	issue := func(ds core.DSID, counter *uint64) {
		var next func()
		next = func() {
			p := core.NewPacket(ids, core.KindPIOWrite, ds, 0, 64<<10, e.Now())
			p.OnDone = func(*core.Packet) {
				*counter += 64 << 10
				next()
			}
			ide.Request(p)
		}
		next()
	}
	issue(1, &done1)
	issue(2, &done2)
	e.Run(50 * sim.Millisecond)
	ratio := float64(done1) / float64(done2)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("default shares %d/%d (ratio %.2f), want ~1.0", done1, done2, ratio)
	}
}

func TestIDEQuotaReallocation(t *testing.T) {
	e, ide, _ := newIDE(t)
	ids := &core.IDSource{}
	var done1, done2 uint64
	issue := func(ds core.DSID, counter *uint64) {
		var next func()
		next = func() {
			p := core.NewPacket(ids, core.KindPIOWrite, ds, 0, 64<<10, e.Now())
			p.OnDone = func(*core.Packet) {
				*counter += 64 << 10
				next()
			}
			ide.Request(p)
		}
		next()
	}
	issue(1, &done1)
	issue(2, &done2)
	// The paper's command: echo 80 > .../ldom0/parameters/bandwidth.
	ide.Plane().Params().SetName(1, ParamBandwidth, 80)
	e.Run(50 * sim.Millisecond)
	share := float64(done1) / float64(done1+done2)
	if share < 0.70 || share > 0.90 {
		t.Fatalf("ds1 share = %.2f after 80%% quota, want ~0.8", share)
	}
}

func TestIDESoloGetsFullBandwidth(t *testing.T) {
	e, ide, _ := newIDE(t)
	ids := &core.IDSource{}
	var done uint64
	var next func()
	next = func() {
		p := core.NewPacket(ids, core.KindPIOWrite, 3, 0, 256<<10, e.Now())
		p.OnDone = func(*core.Packet) {
			done += 256 << 10
			next()
		}
		ide.Request(p)
	}
	next()
	e.Run(100 * sim.Millisecond)
	// 200 MiB/s for 100 ms ~ 20 MiB.
	gotMB := float64(done) / (1 << 20)
	if gotMB < 18 || gotMB > 21 {
		t.Fatalf("solo throughput %.1f MiB in 100ms, want ~20", gotMB)
	}
}

func TestIDEInterruptOnCompletion(t *testing.T) {
	e := sim.NewEngine()
	mem := &sinkMem{e: e}
	var delivered int
	apic := NewAPIC(e, func(int, core.DSID, uint8) { delivered++ })
	apic.SetRoute(4, 14, 0)
	cfg := DefaultIDEConfig()
	ide := NewIDE(e, &core.IDSource{}, cfg, mem, apic)
	p := core.NewPacket(&core.IDSource{}, core.KindPIOWrite, 4, 0, 4096, e.Now())
	ide.Request(p)
	e.StepUntil(func() bool { return delivered > 0 })
	if delivered != 1 {
		t.Fatalf("delivered = %d interrupts", delivered)
	}
}

func TestIDEStatsPublished(t *testing.T) {
	e, ide, _ := newIDE(t)
	ids := &core.IDSource{}
	p := diskWrite(e, ide, ids, 2, 128<<10)
	e.StepUntil(p.Completed)
	// Run to just past the next sampling edge so the window holding the
	// transfer is published (later idle windows legitimately decay to 0).
	interval := ide.Plane().SampleInterval()
	edge := (e.Now()/interval + 1) * interval
	e.Run(edge + sim.Microsecond)
	if ide.Plane().Stat(2, StatServBytes) != 128<<10 {
		t.Fatalf("serv_bytes = %d", ide.Plane().Stat(2, StatServBytes))
	}
	if ide.Plane().Stat(2, StatBandwidth) == 0 {
		t.Fatal("bandwidth stat zero after transfer")
	}
}

func TestBridgeRoutesByWindow(t *testing.T) {
	e := sim.NewEngine()
	mem := &sinkMem{e: e}
	b := NewBridge(e, mem)
	devA := &sinkMem{e: e}
	devB := &sinkMem{e: e}
	if err := b.Attach("a", 0, 1<<20, devA); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach("b", 1<<20, 1<<20, devB); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach("overlap", 512<<10, 1<<20, devA); err == nil {
		t.Fatal("overlapping window accepted")
	}
	ids := &core.IDSource{}
	p1 := core.NewPacket(ids, core.KindPIOWrite, 1, 0x100, 64, 0)
	p2 := core.NewPacket(ids, core.KindPIORead, 2, 1<<20|0x40, 64, 0)
	b.Request(p1)
	b.Request(p2)
	e.Drain(0)
	if len(devA.pkts) != 1 || len(devB.pkts) != 1 {
		t.Fatalf("routing: devA=%d devB=%d", len(devA.pkts), len(devB.pkts))
	}
	if devB.pkts[0].Addr != 0x40 {
		t.Fatalf("window rebase: addr = %#x, want 0x40", devB.pkts[0].Addr)
	}
	if !p1.Completed() || !p2.Completed() {
		t.Fatal("bridge requests not completed")
	}
	if b.Plane().Stat(1, StatPIOCnt) != 1 || b.Plane().Stat(2, StatPIOCnt) != 1 {
		t.Fatal("pio_cnt not accounted per DS-id")
	}
}

func TestBridgeUnclaimedCompletes(t *testing.T) {
	e := sim.NewEngine()
	b := NewBridge(e, &sinkMem{e: e})
	p := core.NewPacket(&core.IDSource{}, core.KindPIORead, 1, 0xDEAD, 64, 0)
	b.Request(p)
	e.Drain(0)
	if !p.Completed() || b.Unclaimed != 1 {
		t.Fatal("unclaimed PIO mishandled")
	}
}

func TestBridgeDMAAccounting(t *testing.T) {
	e := sim.NewEngine()
	mem := &sinkMem{e: e}
	b := NewBridge(e, mem)
	d := NewDMAEngine(e, &core.IDSource{}, b.DMATarget())
	d.Program(6)
	d.Transfer(0, 8192, true, nil)
	e.Drain(0)
	if b.Plane().Stat(6, StatDMABytes) != 8192 {
		t.Fatalf("dma_bytes = %d", b.Plane().Stat(6, StatDMABytes))
	}
	if len(mem.pkts) != 2 {
		t.Fatalf("memory saw %d DMA chunks", len(mem.pkts))
	}
}

func TestNICClassifiesByMAC(t *testing.T) {
	e := sim.NewEngine()
	mem := &sinkMem{e: e}
	var rx []core.DSID
	apic := NewAPIC(e, func(_ int, ds core.DSID, _ uint8) { rx = append(rx, ds) })
	n := NewNIC(e, &core.IDSource{}, DefaultNICConfig(), mem, apic)
	apic.SetRoute(1, DefaultNICConfig().RxVector, 0)
	apic.SetRoute(2, DefaultNICConfig().RxVector, 1)
	if err := n.BindVNIC(0xAA, 1, 0x10000); err != nil {
		t.Fatal(err)
	}
	if err := n.BindVNIC(0xBB, 2, 0x20000); err != nil {
		t.Fatal(err)
	}
	if err := n.BindVNIC(0xAA, 3, 0); err == nil {
		t.Fatal("duplicate MAC accepted")
	}
	n.ReceiveFlow(0, 0xAA, 1500)
	n.ReceiveFlow(0, 0xBB, 1500)
	n.ReceiveFlow(0, 0xCC, 1500) // no vNIC: dropped
	e.Drain(0)
	if len(rx) != 2 || rx[0] != 1 || rx[1] != 2 {
		t.Fatalf("rx interrupts = %v", rx)
	}
	if n.DropCount() != 1 {
		t.Fatalf("drops = %d", n.DropCount())
	}
	// RX DMA carried the right tags.
	tags := map[core.DSID]uint64{}
	for _, p := range mem.pkts {
		tags[p.DSID] += uint64(p.Size)
	}
	if tags[1] != 1500 || tags[2] != 1500 {
		t.Fatalf("DMA bytes by tag: %v", tags)
	}
	if n.Plane().Stat(1, StatRxBytes) != 1500 {
		t.Fatal("rx_bytes not accounted")
	}
}

func TestNICVNICExhaustion(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultNICConfig()
	cfg.VNICs = 1
	n := NewNIC(e, &core.IDSource{}, cfg, &sinkMem{e: e}, nil)
	if err := n.BindVNIC(1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.BindVNIC(2, 2, 0); err == nil {
		t.Fatal("vNIC exhaustion not reported")
	}
	n.UnbindVNIC(1)
	if err := n.BindVNIC(2, 2, 0); err != nil {
		t.Fatalf("bind after unbind failed: %v", err)
	}
}

func TestNICTransmit(t *testing.T) {
	e := sim.NewEngine()
	mem := &sinkMem{e: e}
	n := NewNIC(e, &core.IDSource{}, DefaultNICConfig(), mem, nil)
	n.BindVNIC(0xAA, 1, 0)
	p := core.NewPacket(&core.IDSource{}, core.KindPIOWrite, 1, 0x5000, 1500, 0)
	n.Request(p)
	e.Drain(0)
	if !p.Completed() {
		t.Fatal("TX never completed")
	}
	if n.Plane().Stat(1, StatTxBytes) != 1500 {
		t.Fatal("tx_bytes not accounted")
	}
	// TX DMA-read the payload.
	if len(mem.pkts) != 1 || mem.pkts[0].Kind != core.KindDMARead {
		t.Fatalf("TX DMA traffic: %v", mem.pkts)
	}
}
