package pard

import (
	"testing"
)

func TestRackDSIDPropagation(t *testing.T) {
	// Two servers; a flow's DS-id follows it across the wire: server0's
	// "front" LDom sends flow 7 to server1, whose SDN rule maps flow 7
	// to its "back" LDom regardless of MAC.
	rack := switchless(t, DefaultConfig(), 1, 2, 1, 1)
	s0, s1 := rack.Servers[0], rack.Servers[1]

	front, err := s0.CreateLDom(LDomConfig{
		Name: "front", Cores: []int{0}, MemBase: 0, MAC: 0xA0, NICBuf: 0x1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.CreateLDom(LDomConfig{Name: "other", Cores: []int{0}, MemBase: 0, MAC: 0xB0, NICBuf: 0x1000})
	back, err := s1.CreateLDom(LDomConfig{
		Name: "back", Cores: []int{1}, MemBase: 2 << 30, MAC: 0xB1, NICBuf: 0x2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// SDN rule on server1: flow 7 belongs to "back".
	if err := s1.NIC.BindFlow(7, back.DSID); err != nil {
		t.Fatal(err)
	}

	// front sends 50 frames of flow 7, addressed to the *other* LDom's
	// MAC; the flow rule must win.
	for i := 0; i < 50; i++ {
		s0.NIC.SendFrame(front.DSID, 0xB0, 7, 0x4000, 1500)
	}
	rack.Run(2 * Millisecond)

	if got := s0.NIC.Plane().Stat(front.DSID, "tx_bytes"); got != 50*1500 {
		t.Fatalf("tx accounting = %d", got)
	}
	if got := s1.NIC.Plane().Stat(back.DSID, "rx_bytes"); got != 50*1500 {
		t.Fatalf("flow-steered rx = %d, want %d", got, 50*1500)
	}
	if got := s1.NIC.Plane().Stat(0, "rx_bytes"); got != 0 {
		t.Fatalf("MAC-addressed LDom (ds0) received %d bytes despite the flow rule", got)
	}
	// RX interrupts landed on the back LDom's core (core 1 of server1).
	if s1.InterruptsByCore[1] == 0 {
		t.Fatal("no RX interrupts delivered to the back LDom's core")
	}
	if s1.InterruptsByCore[0] != 0 {
		t.Fatal("RX interrupts leaked to the wrong core")
	}
}

func TestRackWithoutFlowRuleUsesMAC(t *testing.T) {
	rack := switchless(t, DefaultConfig(), 1, 2, 1, 1)
	s0, s1 := rack.Servers[0], rack.Servers[1]
	s0.CreateLDom(LDomConfig{Name: "a", Cores: []int{0}, MAC: 0xA0, NICBuf: 0x1000})
	s1.CreateLDom(LDomConfig{Name: "b", Cores: []int{0}, MAC: 0xB0, NICBuf: 0x1000})
	s0.NIC.SendFrame(0, 0xB0, 99, 0, 1500) // unknown flow: MAC classifies
	rack.Run(Millisecond)
	if got := s1.NIC.Plane().Stat(0, "rx_bytes"); got != 1500 {
		t.Fatalf("MAC fallback rx = %d", got)
	}
}

func TestRackSharedEngineDeterminism(t *testing.T) {
	run := func() uint64 {
		rack := switchless(t, DefaultConfig(), 1, 2, 1, 1)
		for i, s := range rack.Servers {
			s.CreateLDom(LDomConfig{Name: "w", Cores: []int{0}, MAC: uint64(0xA0 + i), NICBuf: 0x1000})
			s.RunWorkload(0, NewSTREAM(0))
		}
		rack.Run(Millisecond)
		return rack.Servers[0].Mem.Served + rack.Servers[1].Mem.Served*1000003
	}
	if run() != run() {
		t.Fatal("rack simulation not deterministic")
	}
}

// TestRackTopologyHelpers counts the links switchless wiring gives
// each server: the rack ring, the ring over racks, and both at once.
func TestRackTopologyHelpers(t *testing.T) {
	cases := []struct {
		name                   string
		racks, perRack, shards int
		want                   int
	}{
		{"rack ring of 4", 1, 4, 1, 2},
		{"rack ring of 2", 1, 2, 1, 1},
		{"lone server", 1, 1, 1, 0},
		{"ring of 4 racks", 4, 1, 1, 2},
		{"sharded ring of 4 racks", 4, 1, 4, 2},
		{"2 racks of 2", 2, 2, 2, 2},
	}
	for _, tc := range cases {
		c := switchless(t, DefaultConfig(), tc.racks, tc.perRack, tc.shards, 1)
		for i, s := range c.Servers {
			if got := s.NIC.NumLinks(); got != tc.want {
				t.Errorf("%s: server %d has %d links, want %d", tc.name, i, got, tc.want)
			}
		}
		if len(c.Switches()) != 0 {
			t.Errorf("%s: switchless cluster built %d switches", tc.name, len(c.Switches()))
		}
	}
}
