package iodev

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// InterruptHandler receives a delivered interrupt on a core.
type InterruptHandler func(coreID int, ds core.DSID, vector uint8)

// APIC is the paper's augmented interrupt controller: the single route
// table of a conventional APIC is duplicated per DS-id, so a device
// interrupt tagged with an LDom's DS-id is steered to that LDom's cores
// only (paper §4.1 step 3).
type APIC struct {
	engine *sim.Engine

	// routes[ds] maps ds's vectors to core ids; nil while ds has no
	// route table.
	routes  []map[uint8]int
	handler InterruptHandler

	// Delivered counts interrupts routed; Dropped counts interrupts
	// with no route table entry.
	Delivered uint64
	Dropped   uint64
}

// NewAPIC builds an APIC; handler receives every delivered interrupt.
func NewAPIC(e *sim.Engine, handler InterruptHandler) *APIC {
	return &APIC{engine: e, handler: handler}
}

// SetRoute programs (ds, vector) -> core. The PRM firmware calls this
// while building an LDom.
func (a *APIC) SetRoute(ds core.DSID, vector uint8, coreID int) {
	a.routes = core.GrowTo(a.routes, ds)
	if a.routes[ds] == nil {
		a.routes[ds] = make(map[uint8]int)
	}
	a.routes[ds][vector] = coreID
}

// ClearRoutes drops ds's route table (LDom teardown).
func (a *APIC) ClearRoutes(ds core.DSID) {
	if int(ds) < len(a.routes) {
		a.routes[ds] = nil
	}
}

// Request accepts interrupt packets from devices.
func (a *APIC) Request(p *core.Packet) {
	if p.Kind != core.KindInterrupt {
		panic(fmt.Sprintf("iodev: APIC received %v", p.Kind))
	}
	coreID, ok := core.At(a.routes, p.DSID)[p.Vector]
	if !ok {
		a.Dropped++
		p.Complete(a.engine.Now())
		return
	}
	a.Delivered++
	if a.handler != nil {
		a.handler(coreID, p.DSID, p.Vector)
	}
	p.Complete(a.engine.Now())
}
