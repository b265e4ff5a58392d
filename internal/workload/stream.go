package workload

import "repro/internal/sim"

// Stream is a STREAM-triad-style generator: per iteration it loads from
// two source arrays and stores to a destination array, with a
// configurable compute gap controlling memory intensity. The footprint
// is walked sequentially at cache-block stride and wraps forever.
type Stream struct {
	Base      uint64 // region base address
	Footprint uint64 // bytes per array
	Stride    uint64 // bytes between accesses; 0 means 64
	Compute   uint64 // compute cycles before each access

	pos   uint64
	phase int // 0: load a, 1: load b, 2: store c, interleaved with compute
	gap   bool
}

// Next alternates compute gaps with triad accesses.
func (s *Stream) Next(sim.Tick) Op {
	stride := s.Stride
	if stride == 0 {
		stride = 64
	}
	if s.Compute > 0 && !s.gap {
		s.gap = true
		return Op{Kind: OpCompute, Cycles: s.Compute}
	}
	s.gap = false
	off := s.pos % s.Footprint
	var op Op
	switch s.phase {
	case 0:
		op = Op{Kind: OpLoad, Addr: s.Base + off}
	case 1:
		op = Op{Kind: OpLoad, Addr: s.Base + s.Footprint + off}
	default:
		op = Op{Kind: OpStore, Addr: s.Base + 2*s.Footprint + off}
		s.pos += stride
	}
	s.phase = (s.phase + 1) % 3
	return op
}

// CacheFlush touches a footprint much larger than the LLC with uniformly
// random block accesses, evicting everyone else's blocks as fast as the
// memory system allows (the paper's CacheFlush microbenchmark).
type CacheFlush struct {
	Base      uint64
	Footprint uint64 // should exceed LLC capacity
	Compute   uint64 // compute cycles between accesses (usually small)
	Seed      int64

	r   *randSource
	gap bool
}

type randSource struct{ s uint64 }

func (r *randSource) next() uint64 { // xorshift64*: fast, deterministic
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Next returns the next random-block load.
func (c *CacheFlush) Next(sim.Tick) Op {
	if c.r == nil {
		seed := uint64(c.Seed)
		if seed == 0 {
			seed = 0x9E3779B97F4A7C15
		}
		//pardlint:ignore hotalloc lazy PRNG init: once per generator lifetime
		c.r = &randSource{s: seed}
	}
	if c.Compute > 0 && !c.gap {
		c.gap = true
		return Op{Kind: OpCompute, Cycles: c.Compute}
	}
	c.gap = false
	blocks := c.Footprint / 64
	off := c.r.next() % blocks * 64
	return Op{Kind: OpLoad, Addr: c.Base + off}
}

// SPEC CPU2006 proxies. Only the footprint and memory intensity of the
// originals matter to the shared LLC and DRAM; these generators match
// those characteristics (DESIGN.md §2):
//
//   - 470.lbm: fluid dynamics, large streaming footprint, memory-bound.
//   - 437.leslie3d: computational fluid dynamics, moderate footprint and
//     arithmetic intensity.

// NewLBM returns a 470.lbm proxy over a region at base.
func NewLBM(base uint64) *Stream {
	return &Stream{Base: base, Footprint: 24 << 20, Compute: 2}
}

// NewLeslie3d returns a 437.leslie3d proxy over a region at base.
func NewLeslie3d(base uint64) *Stream {
	return &Stream{Base: base, Footprint: 8 << 20, Compute: 10}
}

// NewSTREAM returns the STREAM co-runner used by the Figure 8/9
// co-location experiments: memory-intensive with a multi-MB footprint.
func NewSTREAM(base uint64) *Stream {
	return &Stream{Base: base, Footprint: 4 << 20, Compute: 4}
}
