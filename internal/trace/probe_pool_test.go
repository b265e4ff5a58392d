package trace

import (
	"testing"

	"repro/internal/core"
)

// nopTarget absorbs packets without allocating, so AllocsPerRun below
// measures the probe alone.
type nopTarget struct{}

func (nopTarget) Request(*core.Packet) {}

// After the first sight of a DS-id the steady-state Request path must
// not allocate.
func TestProbeSteadyStateZeroAlloc(t *testing.T) {
	p := NewProbe("mem", nopTarget{})
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
