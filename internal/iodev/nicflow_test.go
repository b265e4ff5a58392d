package iodev

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func newFlowNIC(t *testing.T) (*sim.Engine, *NIC, *sinkMem) {
	t.Helper()
	e := sim.NewEngine()
	mem := &sinkMem{e: e}
	n := NewNIC(e, &core.IDSource{}, DefaultNICConfig(), mem, nil)
	if err := n.BindVNIC(0xAA, 1, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := n.BindVNIC(0xBB, 2, 0x2000); err != nil {
		t.Fatal(err)
	}
	return e, n, mem
}

func TestFlowTableOverridesMAC(t *testing.T) {
	e, n, mem := newFlowNIC(t)
	// Flow 77 belongs to LDom2 even when addressed to LDom1's MAC —
	// the SDN controller migrated the flow.
	if err := n.BindFlow(77, 2); err != nil {
		t.Fatal(err)
	}
	n.ReceiveFlow(77, 0xAA, 1500)
	e.Drain(0)
	if len(mem.pkts) != 1 || mem.pkts[0].DSID != 2 {
		t.Fatalf("flow-classified DMA: %v", mem.pkts)
	}
	if n.Plane().Stat(2, StatRxBytes) != 1500 || n.Plane().Stat(1, StatRxBytes) != 0 {
		t.Fatal("rx accounting followed MAC, not flow")
	}
}

func TestUnknownFlowFallsBackToMAC(t *testing.T) {
	e, n, mem := newFlowNIC(t)
	n.ReceiveFlow(9999, 0xAA, 1000)
	e.Drain(0)
	if len(mem.pkts) != 1 || mem.pkts[0].DSID != 1 {
		t.Fatalf("fallback DMA: %v", mem.pkts)
	}
}

func TestZeroFlowMeansUntagged(t *testing.T) {
	e, n, mem := newFlowNIC(t)
	n.BindFlow(77, 2)
	n.ReceiveFlow(0, 0xAA, 500) // untagged: MAC decides
	e.Drain(0)
	if mem.pkts[0].DSID != 1 {
		t.Fatalf("untagged frame classified as %v", mem.pkts[0].DSID)
	}
}

func TestBindFlowRequiresVNIC(t *testing.T) {
	_, n, _ := newFlowNIC(t)
	if err := n.BindFlow(5, 9); err == nil {
		t.Fatal("flow bound to a DS-id with no vNIC")
	}
}

func TestUnbindFlowAndVNICCleanup(t *testing.T) {
	e, n, mem := newFlowNIC(t)
	n.BindFlow(77, 2)
	n.UnbindFlow(77)
	n.ReceiveFlow(77, 0xAA, 100) // rule gone: MAC decides
	e.Drain(0)
	if mem.pkts[0].DSID != 1 {
		t.Fatal("unbound flow rule still active")
	}
	// Tearing down the vNIC clears its flow rules too.
	n.BindFlow(88, 2)
	n.UnbindVNIC(0xBB)
	if len(n.flows) != 0 {
		t.Fatalf("flow rules survived vNIC teardown: %v", n.flows)
	}
	n.ReceiveFlow(88, 0xCC, 100)
	if n.DropCount() != 1 {
		t.Fatal("frame for a torn-down LDom not dropped")
	}
}

// TestConnectPeerRejectsSelfAndDuplicates: a NIC cannot link to itself,
// a pair links once whichever end asks, and a rejected attempt attaches
// no wire.
func TestConnectPeerRejectsSelfAndDuplicates(t *testing.T) {
	e := sim.NewEngine()
	newNIC := func() *NIC { return NewNIC(e, &core.IDSource{}, DefaultNICConfig(), &sinkMem{e: e}, nil) }
	a, b, c := newNIC(), newNIC(), newNIC()
	links := func() [3]int { return [3]int{a.NumLinks(), b.NumLinks(), c.NumLinks()} }

	if err := a.ConnectPeerLatency(a, 0); err == nil {
		t.Error("self link accepted")
	}
	if got := links(); got != [3]int{0, 0, 0} {
		t.Fatalf("rejected self link attached wires: %v", got)
	}
	if err := a.ConnectPeerLatency(b, sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*NIC{{a, b}, {b, a}} {
		if err := pair[0].ConnectPeerLatency(pair[1], sim.Microsecond); err == nil {
			t.Error("duplicate link accepted")
		}
	}
	if got := links(); got != [3]int{1, 1, 0} {
		t.Fatalf("rejected duplicates attached wires: %v", got)
	}
	if err := b.ConnectPeerLatency(c, 0); err != nil {
		t.Fatalf("distinct pair rejected: %v", err)
	}
	if got := links(); got != [3]int{1, 2, 1} {
		t.Fatalf("links after b-c = %v, want [1 2 1]", got)
	}
}
