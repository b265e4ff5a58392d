package trace

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// nopTarget absorbs packets without allocating, so AllocsPerRun below
// measures the probe alone.
type nopTarget struct{}

func (nopTarget) Request(*core.Packet) {}

// After the first sight of a DS-id the steady-state Request path
// (counter update + ring record) must not allocate.
func TestProbeSteadyStateZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	p := NewProbe("mem", e, nopTarget{}, 8)
	ids := &core.IDSource{}
	pkt := core.NewPacket(ids, core.KindMemRead, 2, 0x40, 64, 0)
	p.Request(pkt) // first sight of ds2 grows the table
	if avg := testing.AllocsPerRun(1000, func() { p.Request(pkt) }); avg != 0 {
		t.Fatalf("steady-state probe Request: %v allocs/op", avg)
	}
	if p.Count(core.KindMemRead, 2) < 1001 {
		t.Fatalf("probe lost counts: %d", p.Count(core.KindMemRead, 2))
	}
}

// A ring Record is a value snapshot: recycling the pooled packet that
// produced it must not rewrite history. Run both ID-source modes — the
// pooled one actually reuses the struct, the unpooled one guards the
// same property when the allocator happens to reuse memory.
func TestProbeRecordSurvivesPacketRecycle(t *testing.T) {
	for _, pooled := range []bool{true, false} {
		name := "unpooled"
		if pooled {
			name = "pooled"
		}
		t.Run(name, func(t *testing.T) {
			e := sim.NewEngine()
			ids := &core.IDSource{}
			if pooled {
				ids.EnablePool()
			}
			p := NewProbe("mem", e, nopTarget{}, 4)
			pkt := core.NewPacket(ids, core.KindMemRead, 3, 0x1000, 64, e.Now())
			firstID := pkt.ID
			p.Request(pkt)
			pkt.Complete(e.Now())

			// With the pool on, this hands the same struct back with new
			// identity fields.
			next := core.NewPacket(ids, core.KindPIOWrite, 9, 0xdead, 4096, e.Now())
			if pooled && next != pkt {
				t.Fatal("pool did not recycle the packet struct (test premise)")
			}
			p.Request(next)

			recent := p.Recent()
			if len(recent) != 2 {
				t.Fatalf("ring holds %d records", len(recent))
			}
			r := recent[0]
			if r.ID != firstID || r.DSID != 3 || r.Addr != 0x1000 || r.Size != 64 || r.Kind != core.KindMemRead {
				t.Fatalf("first record corrupted by recycle: %+v", r)
			}
		})
	}
}
