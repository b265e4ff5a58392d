package iodev

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func newBareIDE(e *sim.Engine) *IDE {
	cfg := DefaultIDEConfig()
	cfg.InterruptVector = 0
	return NewIDE(e, &core.IDSource{}, cfg, &sinkMem{e: e}, nil)
}

// TestDRRDeficitMapCleanup: a flow leaving the ring must forfeit its
// deficit and its ring membership. An old serveNext zeroed the deficit
// but kept its map key, so DS-id churn grew the map without bound.
func TestDRRDeficitMapCleanup(t *testing.T) {
	e := sim.NewEngine()
	ide := newBareIDE(e)
	ids := &core.IDSource{}
	for i := 0; i < 200; i++ {
		done := false
		p := core.NewPacket(ids, core.KindPIOWrite, core.DSID(i), 0, 32<<10, e.Now())
		p.OnDone = func(*core.Packet) { done = true }
		ide.Request(p)
		e.StepUntil(func() bool { return done })
	}
	if ide.ServedOps != 200 {
		t.Fatalf("ServedOps = %d, want 200", ide.ServedOps)
	}
	if len(ide.ring) != 0 {
		t.Fatalf("ring holds %v after every flow drained, want none", ide.ring)
	}
	for ds, f := range ide.flows {
		if f.q != nil || f.deficit != 0 || f.inRing {
			t.Fatalf("DS-id %d keeps state %+v after it drained, want none", ds, f)
		}
	}
}

// TestDRRHugeRequestServes: regression for the bounded-rounds stall.
// The old serveNext capped deficit top-ups at 64*len(ring) visits, so a
// request needing more rounds than that — a huge transfer against the
// floor weight of 5 — exited the loop unserved and the disk sat idle
// until the next enqueue. The closed-form grant serves it directly.
func TestDRRHugeRequestServes(t *testing.T) {
	e := sim.NewEngine()
	ide := newBareIDE(e)
	ids := &core.IDSource{}
	// ds1 holds quota 98, leaving residual 2 for ds2: ds2 takes the
	// floor weight of 5 (40 KB grant/visit). Both requests need more
	// visits than the old 64*len(ring) budget allowed.
	ide.Plane().Params().SetName(1, ParamBandwidth, 98)
	doneCount := 0
	submit := func(ds core.DSID, size uint32) {
		p := core.NewPacket(ids, core.KindPIOWrite, ds, 0, size, e.Now())
		p.OnDone = func(*core.Packet) { doneCount++ }
		ide.Request(p)
	}
	submit(1, 80<<20) // needs ~103 grants at 98*8 KB each
	submit(2, 4<<20)  // needs ~103 grants at 5*8 KB each
	e.StepUntil(func() bool { return doneCount == 2 })
	if ide.ServedOps != 2 {
		t.Fatalf("ServedOps = %d, want 2", ide.ServedOps)
	}
}

// TestDRROversubscribedQuotasShareProportionally pins the documented
// oversubscription semantics: quotas are weights, so two explicit 80s
// split the disk 50/50 (and a quota past 100 is clamped, so 200 vs 100
// also lands at 50/50), instead of each being promised 80%.
func TestDRROversubscribedQuotasShareProportionally(t *testing.T) {
	for _, tc := range []struct {
		name   string
		qa, qb uint64
		want   float64 // served[1]/served[2]
	}{
		{"two-80s", 80, 80, 1.0},
		{"clamped-200-vs-100", 200, 100, 1.0},
		{"160-vs-40-oversubscribed", 160, 40, 2.5}, // 160 clamps to 100; 100:40
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			cfg := DefaultIDEConfig()
			cfg.InterruptVector = 0
			cfg.QueueDepth = 4
			ide := NewIDE(e, &core.IDSource{}, cfg, &sinkMem{e: e}, nil)
			ide.Plane().Params().SetName(1, ParamBandwidth, tc.qa)
			ide.Plane().Params().SetName(2, ParamBandwidth, tc.qb)
			ids := &core.IDSource{}
			var served [3]uint64
			feed := func(ds core.DSID) {
				var next func()
				next = func() {
					p := core.NewPacket(ids, core.KindPIOWrite, ds, 0, 32<<10, e.Now())
					p.OnDone = func(*core.Packet) {
						served[ds] += 32 << 10
						next()
					}
					ide.Request(p)
				}
				next()
			}
			feed(1)
			feed(2)
			e.Run(400 * sim.Millisecond) // span many quantum burst cycles
			got := float64(served[1]) / float64(served[2])
			if rel := got / tc.want; rel < 0.95 || rel > 1.05 {
				t.Fatalf("served ratio = %.3f, want %.3f ±5%%", got, tc.want)
			}
		})
	}
}

// doneHash is the FNV-64a hash of completion ticks, one "%d\n" each.
func doneHash(done []sim.Tick) string {
	h := fnv.New64a()
	for _, d := range done {
		fmt.Fprintf(h, "%d\n", d)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPIFODRREquivalence pins the disk plane's DRR trajectory on a
// randomized multi-tenant workload: per seed, the hash of every
// transfer's completion tick. The hashes were recorded while the
// pifo-drr rank function over a PIFO mirror still ran beside the
// closed-form DRR argmin, and both produced them.
func TestPIFODRREquivalence(t *testing.T) {
	run := func(seed int64) []sim.Tick {
		e := sim.NewEngine()
		cfg := DefaultIDEConfig()
		cfg.InterruptVector = 0
		cfg.QueueDepth = 2
		ide := NewIDE(e, &core.IDSource{}, cfg, &sinkMem{e: e}, nil)
		ide.Plane().Params().SetName(1, ParamBandwidth, 60)
		ids := &core.IDSource{}
		r := rand.New(rand.NewSource(seed))
		var done []sim.Tick
		var pkts []*core.Packet
		for i := 0; i < 120; i++ {
			size := uint32(r.Intn(256<<10) + 512)
			p := core.NewPacket(ids, core.KindPIOWrite, core.DSID(r.Intn(4)), 0, size, e.Now())
			pkts = append(pkts, p)
			ide.Request(p)
			if r.Intn(3) == 0 {
				e.Run(e.Now() + sim.Tick(r.Intn(500))*sim.Microsecond)
			}
		}
		e.StepUntil(func() bool {
			for _, p := range pkts {
				if !p.Completed() {
					return false
				}
			}
			return true
		})
		for _, p := range pkts {
			done = append(done, p.Done)
		}
		return done
	}
	for _, g := range []struct {
		seed int64
		want string
	}{
		{3, "447841aa06fe4db1"},
		{11, "c8ddfd2b913b5bf3"},
		{99, "3c829dfd54e80364"},
	} {
		if got := doneHash(run(g.seed)); got != g.want {
			t.Errorf("seed %d: completion hash %s, golden %s", g.seed, got, g.want)
		}
	}
}

// TestIDESchedulerHook: the IDE registers its one scheduling algorithm,
// and the plane rejects any other name — the retired pifo-drr included,
// which only the .pard compiler still accepts.
func TestIDESchedulerHook(t *testing.T) {
	e := sim.NewEngine()
	ide := newBareIDE(e)
	if got := ide.Plane().SchedulerAlgo(); got != SchedDRR {
		t.Fatalf("SchedulerAlgo = %q, want %q", got, SchedDRR)
	}
	if err := ide.Plane().InstallScheduler(SchedDRR); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"pifo-drr", "cfq"} {
		err := ide.Plane().InstallScheduler(bad)
		if err == nil || !strings.Contains(err.Error(), "have drr") {
			t.Fatalf("InstallScheduler(%q) = %v, want an error naming drr", bad, err)
		}
	}
}
