// Rack: DS-id propagation across servers (paper §8 / open problems:
// "integrate PARD and SDN so that DS-id can be propagated in a data
// center wide"). Two PARD servers share a simulation; an SDN flow rule
// on the receiving server steers a flow to the right LDom — bytes, DMA
// tags and interrupts included — regardless of MAC addressing.
package main

import (
	"fmt"

	"repro/pard"
)

func main() {
	// One rack of two servers, linked server to server with no switch.
	rack, err := pard.NewCluster(pard.ClusterConfig{
		Racks: 1, ServersPerRack: 2, Switchless: true, Server: pard.DefaultConfig(),
	})
	if err != nil {
		panic(err)
	}
	front := rack.Servers[0] // web tier
	back := rack.Servers[1]  // storage tier

	web, _ := front.CreateLDom(pard.LDomConfig{
		Name: "web", Cores: []int{0}, MemBase: 0, MAC: 0xA0, NICBuf: 0x10000,
	})
	back.CreateLDom(pard.LDomConfig{
		Name: "batch", Cores: []int{0}, MemBase: 0, MAC: 0xB0, NICBuf: 0x10000,
	})
	store, _ := back.CreateLDom(pard.LDomConfig{
		Name: "store", Cores: []int{1}, MemBase: 2 << 30, MAC: 0xB1, NICBuf: 0x20000,
	})

	// The SDN controller correlates flow 7 with the store LDom's DS-id
	// on the storage server.
	if err := back.NIC.BindFlow(7, store.DSID); err != nil {
		panic(err)
	}
	fmt.Println("SDN rule on server1: flow 7 -> store LDom")

	// The web LDom sends 100 requests of flow 7. They are *addressed*
	// to the batch LDom's MAC — stale addressing after a migration —
	// but the flow rule wins.
	for i := 0; i < 100; i++ {
		front.NIC.SendFrame(web.DSID, 0xB0, 7, 0x4000, 1500)
	}
	rack.Run(5 * pard.Millisecond)

	rx := func(sys *pard.System, ds pard.DSID) uint64 {
		return sys.NIC.Plane().Stat(ds, "rx_bytes")
	}
	fmt.Printf("server1 batch LDom rx: %6d B (MAC said here)\n", rx(back, 0))
	fmt.Printf("server1 store LDom rx: %6d B (flow rule won)\n", rx(back, store.DSID))
	fmt.Printf("store LDom's core got %d RX interrupts; batch's core got %d\n",
		back.InterruptsByCore[1], back.InterruptsByCore[0])
	fmt.Println("\nthe DS-id followed the flow across the wire: QoS rules on the storage")
	fmt.Println("server (way masks, memory priority, disk quotas) now apply end to end")
}
