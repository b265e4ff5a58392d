package trace

import (
	"strings"
	"testing"

	"repro/internal/core"
)

type sink struct{ got []*core.Packet }

func (s *sink) Request(p *core.Packet) { s.got = append(s.got, p) }

func observe(p *Probe, ids *core.IDSource, kind core.Kind, ds core.DSID, n int) {
	for i := 0; i < n; i++ {
		p.Request(core.NewPacket(ids, kind, ds, uint64(i)*64, 64, 0))
	}
}

func TestProbeForwardsAndCounts(t *testing.T) {
	s := &sink{}
	p := NewProbe("llc", s)
	ids := &core.IDSource{}
	observe(p, ids, core.KindMemRead, 1, 5)
	observe(p, ids, core.KindWriteback, 2, 3)
	if len(s.got) != 8 {
		t.Fatalf("forwarded %d packets", len(s.got))
	}
	if p.Total() != 8 {
		t.Fatalf("Total = %d", p.Total())
	}
	if p.Count(core.KindMemRead, 1) != 5 || p.Count(core.KindWriteback, 2) != 3 {
		t.Fatal("per-key counts wrong")
	}
	if p.Bytes(core.KindMemRead, 1) != 5*64 {
		t.Fatalf("bytes = %d", p.Bytes(core.KindMemRead, 1))
	}
	if p.CountByDSID(1) != 5 || p.CountByDSID(2) != 3 {
		t.Fatal("CountByDSID wrong")
	}

	// A DS-id first seen after a larger one lands in its own row.
	observe(p, ids, core.KindWriteback, 6, 2)
	observe(p, ids, core.KindMemRead, 1, 4)
	if p.Count(core.KindMemRead, 1) != 9 || p.Bytes(core.KindMemRead, 1) != 9*64 {
		t.Fatalf("ds1 after ds6: count=%d bytes=%d", p.Count(core.KindMemRead, 1), p.Bytes(core.KindMemRead, 1))
	}
	if p.Count(core.KindWriteback, 6) != 2 || p.CountByDSID(6) != 2 || p.CountByDSID(5) != 0 {
		t.Fatal("ds6 counters wrong")
	}
	if p.Count(core.KindMemRead, 99) != 0 || p.CountByDSID(99) != 0 {
		t.Fatal("an unseen DS-id reports packets")
	}
	want := "probe llc: 14 packets\n" +
		"  MemRead    ds1             9 pkts          576 bytes\n" +
		"  Writeback  ds2             3 pkts          192 bytes\n" +
		"  Writeback  ds6             2 pkts          128 bytes\n"
	if got := p.Summary(); got != want {
		t.Fatalf("Summary:\n%s\nwant:\n%s", got, want)
	}

	// Reset zeroes the rows in place: counting resumes without
	// allocating, for the early and the late DS-id alike.
	p.Reset()
	if p.Total() != 0 || p.CountByDSID(1) != 0 || p.CountByDSID(6) != 0 {
		t.Fatal("Reset left counters behind")
	}
	pkts := []*core.Packet{
		core.NewPacket(ids, core.KindMemRead, 1, 0, 64, 0),
		core.NewPacket(ids, core.KindWriteback, 6, 0, 64, 0),
	}
	i := 0
	if avg := testing.AllocsPerRun(100, func() { p.Request(pkts[i%2]); i++ }); avg != 0 {
		t.Fatalf("Request after Reset: %v allocs/op", avg)
	}
	if p.Count(core.KindMemRead, 1)+p.Count(core.KindWriteback, 6) != uint64(i) || p.Total() != uint64(i) {
		t.Fatalf("counts after Reset: ds1=%d ds6=%d total=%d", p.Count(core.KindMemRead, 1), p.Count(core.KindWriteback, 6), p.Total())
	}
}

func TestProbeReset(t *testing.T) {
	p := NewProbe("x", &sink{})
	observe(p, &core.IDSource{}, core.KindMemRead, 1, 3)
	p.Reset()
	if p.Total() != 0 || p.Count(core.KindMemRead, 1) != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestProbeSummary(t *testing.T) {
	p := NewProbe("mem", &sink{})
	ids := &core.IDSource{}
	observe(p, ids, core.KindMemRead, 1, 9)
	observe(p, ids, core.KindWriteback, 2, 1)
	out := p.Summary()
	if !strings.Contains(out, "probe mem: 10 packets") {
		t.Fatalf("summary header: %q", out)
	}
	// Sorted by count: MemRead line first.
	if strings.Index(out, "MemRead") > strings.Index(out, "Writeback") {
		t.Fatalf("summary not sorted by count:\n%s", out)
	}
}
