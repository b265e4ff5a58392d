// Package core implements PARD's primary contribution: DS-id tagging of
// intra-computer-network (ICN) packets and the programmable control-plane
// framework (parameter / statistics / trigger tables plus the CPA
// register-level programming interface) that shared hardware resources
// instantiate.
package core

import (
	"fmt"

	"repro/internal/sim"
)

// DSID is a differentiated-service id: the tag attached to every ICN
// packet identifying the high-level entity (logical domain, container,
// process...) the packet belongs to. The paper's RTL uses 8-bit tags and
// the programming interface reserves 16 bits; we use 16.
type DSID uint16

// DSIDDefault is the tag used by requests that predate LDom assignment
// (e.g. platform bring-up traffic). Control-plane tables keep a default
// row for it.
const DSIDDefault DSID = 0

func (d DSID) String() string { return fmt.Sprintf("ds%d", uint16(d)) }

// Kind classifies ICN packets. A traditional computer is a network in
// which components exchange exactly these packet classes (paper §2.1).
type Kind uint8

// Packet kinds.
const (
	KindMemRead   Kind = iota // cache/memory read request
	KindMemWrite              // cache/memory write request
	KindWriteback             // dirty-block eviction (tagged with owner DS-id)
	KindPIORead               // programmed I/O read
	KindPIOWrite              // programmed I/O write
	KindDMARead               // device-initiated memory read
	KindDMAWrite              // device-initiated memory write
	KindInterrupt             // interrupt message toward the APIC
)

var kindNames = [...]string{
	"MemRead", "MemWrite", "Writeback", "PIORead", "PIOWrite",
	"DMARead", "DMAWrite", "Interrupt",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsWrite reports whether the packet moves data toward the target.
func (k Kind) IsWrite() bool {
	switch k {
	case KindMemWrite, KindWriteback, KindPIOWrite, KindDMAWrite:
		return true
	}
	return false
}

// Packet is one ICN message. The DS-id travels with the request for its
// whole lifetime (paper §3 mechanism 1); completion flows back through
// the OnDone callback.
//
// Lifetime rule (pooled packets): when the packet came from a pooled
// IDSource, Complete returns it to the free list after OnDone runs, and
// the next NewPacket on that source may hand the same object out again.
// Holders must therefore drop every reference when Complete returns: read
// Done/Latency inside OnDone (or immediately, before any further
// NewPacket can run), and never stash a completed packet in a queue, map
// or result. Components that need packet data after completion copy the
// fields out (see trace.PacketTrace).
type Packet struct {
	ID    uint64
	Kind  Kind
	DSID  DSID
	Addr  uint64
	Size  uint32
	Issue sim.Tick // when the source issued the request

	// Vector is the interrupt vector for KindInterrupt packets.
	Vector uint8

	// OnDone, if non-nil, is invoked exactly once when the request
	// completes. Done holds the completion time.
	OnDone func(*Packet)
	Done   sim.Tick

	completed bool

	// src is the pooled IDSource to recycle into on Complete; nil for
	// packets from an unpooled source.
	src *IDSource

	// callFn is the embedded scheduled-callback slot (see ScheduleCall):
	// one reusable event per packet, so per-hop pipeline delays schedule
	// without allocating a closure.
	callFn func(*Packet)
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %s %s addr=%#x size=%d", p.ID, p.Kind, p.DSID, p.Addr, p.Size)
}

// Complete marks the packet finished at time now and fires OnDone.
// Completing a packet twice panics: it would corrupt latency accounting.
// A pooled packet is recycled into its IDSource free list after OnDone
// returns — see the lifetime rule on Packet.
//
//pardlint:hotpath every completed request funnels through here
func (p *Packet) Complete(now sim.Tick) {
	if p.completed {
		panic("core: packet completed twice: " + p.String())
	}
	if p.callFn != nil {
		panic("core: packet completed with a scheduled call pending: " + p.String())
	}
	p.completed = true
	p.Done = now
	if p.OnDone != nil {
		p.OnDone(p)
	}
	if p.src != nil {
		p.src.free = append(p.src.free, p)
	}
}

// ScheduleCall schedules fn(p) to run n cycles from now on clk, through
// the packet's embedded event slot: no closure, no per-event allocation.
// At most one call may be pending per packet; overlapping calls panic.
// The scheduled call must run (and any successor complete the packet)
// before the packet is recycled, or the engine would invoke a stale slot.
func (p *Packet) ScheduleCall(clk *sim.Clock, n uint64, fn func(*Packet)) {
	if fn == nil {
		panic("core: nil packet call")
	}
	if p.callFn != nil {
		panic("core: packet already has a scheduled call pending: " + p.String())
	}
	p.callFn = fn
	clk.ScheduleCycles(n, p)
}

// ScheduleCallAt is ScheduleCall at an absolute engine time, for delays
// that are not whole cycles of any one clock (e.g. DRAM bank timings
// that straddle a precharge window).
func (p *Packet) ScheduleCallAt(e *sim.Engine, when sim.Tick, fn func(*Packet)) {
	if fn == nil {
		panic("core: nil packet call")
	}
	if p.callFn != nil {
		panic("core: packet already has a scheduled call pending: " + p.String())
	}
	p.callFn = fn
	e.AtEventer(when, p)
}

// RunEvent implements sim.Eventer: it clears and invokes the pending
// scheduled call. The slot is cleared first so fn may schedule again.
//
//pardlint:hotpath engine dispatch target for every packet-embedded event
func (p *Packet) RunEvent() {
	fn := p.callFn
	if fn == nil {
		panic("core: packet event fired with empty call slot: " + p.String())
	}
	p.callFn = nil
	fn(p)
}

// Completed reports whether Complete has run.
func (p *Packet) Completed() bool { return p.completed }

// Latency returns completion latency; valid only after Complete.
func (p *Packet) Latency() sim.Tick { return p.Done - p.Issue }

// Target is anything that accepts ICN packets: caches, memory
// controllers, I/O bridges, devices. Request is asynchronous; the target
// eventually calls pkt.Complete.
type Target interface {
	Request(p *Packet)
}

// IDSource hands out unique packet IDs. One per system keeps runs
// deterministic and independent.
//
// With EnablePool, the source also runs a free list of recycled packets:
// NewPacket pops from it instead of allocating, and Complete pushes
// finished packets back. Pooling changes no observable behavior — ids,
// ordering and timing are identical — but callers must follow the
// pooled-packet lifetime rule documented on Packet. The zero value is an
// unpooled source, which is what tests that retain completed packets use.
type IDSource struct {
	next   uint64
	pooled bool
	free   []*Packet
}

// NewIDSource returns a pooled source — the standard per-server
// configuration. Giving every server its own source keeps packet
// recycling local to the engine the packets live on, which is what lets
// a sharded cluster run each server's pool lock-free, and makes packet ids
// (and with them trace sampling) independent of how many servers share
// a simulation.
func NewIDSource() *IDSource {
	s := &IDSource{}
	s.EnablePool()
	return s
}

// Next returns a fresh packet id.
func (s *IDSource) Next() uint64 {
	s.next++
	return s.next
}

// EnablePool turns on packet recycling for this source. Call it once at
// system construction, before any traffic.
func (s *IDSource) EnablePool() { s.pooled = true }

// FreeCount reports the current free-list depth (for tests).
func (s *IDSource) FreeCount() int { return len(s.free) }

// TagRegister is the per-source DS-id register PARD adds to every
// request generator: CPU cores, DMA engines and vNICs (paper §4.1).
type TagRegister struct {
	ds DSID
}

// Set programs the register; Get reads it.
func (r *TagRegister) Set(d DSID) { r.ds = d }

// Get returns the currently programmed DS-id.
func (r *TagRegister) Get() DSID { return r.ds }

// NewPacket is a convenience constructor stamping issue time and id. On
// a pooled source it reuses a recycled packet when one is free, fully
// resetting it; otherwise it allocates.
//
//pardlint:hotpath per-request packet acquisition
func NewPacket(ids *IDSource, kind Kind, ds DSID, addr uint64, size uint32, now sim.Tick) *Packet {
	id := ids.Next()
	if ids.pooled {
		var p *Packet
		if n := len(ids.free); n > 0 {
			p = ids.free[n-1]
			ids.free[n-1] = nil
			ids.free = ids.free[:n-1]
		} else {
			//pardlint:ignore hotalloc pool miss: amortized to zero once the free list reaches steady-state depth
			p = new(Packet)
		}
		// Field by field, not *p = Packet{...}: the composite literal
		// is built on the stack and block-copied under write barriers.
		// TestNewPacketResetsRecycled catches a field missed here.
		p.ID, p.Kind, p.DSID, p.Addr, p.Size, p.Issue = id, kind, ds, addr, size, now
		p.Vector = 0
		p.OnDone, p.Done, p.completed = nil, 0, false
		p.src, p.callFn = ids, nil
		return p
	}
	//pardlint:ignore hotalloc unpooled sources are a test-only configuration; production servers pool
	return &Packet{
		ID:    id,
		Kind:  kind,
		DSID:  ds,
		Addr:  addr,
		Size:  size,
		Issue: now,
	}
}
