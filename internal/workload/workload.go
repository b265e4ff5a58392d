// Package workload provides the traffic generators driven by CPU cores:
// the latency-critical memcached model, the STREAM / CacheFlush
// microbenchmarks, SPEC CPU2006 access-pattern proxies and the dd-style
// disk copy — the workload mix of the paper's evaluation (§7, Table 2).
package workload

import (
	"math/rand"

	"repro/internal/sim"
)

// OpKind classifies one operation a core executes.
type OpKind uint8

// Operation kinds.
const (
	OpCompute   OpKind = iota // busy for Cycles core cycles
	OpIdle                    // idle for Cycles core cycles (no work)
	OpLoad                    // memory read at Addr
	OpStore                   // memory write at Addr
	OpDiskRead                // PIO+DMA disk read of Bytes
	OpDiskWrite               // PIO+DMA disk write of Bytes
	OpDone                    // workload finished
)

// Op is one operation.
type Op struct {
	Kind   OpKind
	Cycles uint64
	Addr   uint64
	Bytes  uint32
}

// Generator produces a core's operation stream. Next is called once the
// previous operation retires; now is the current simulation time.
type Generator interface {
	Next(now sim.Tick) Op
}

// idleCycles converts a tick delay to whole core cycles (minimum 1) for
// an OpIdle, assuming the 2 GHz core clock of Table 2.
func idleCycles(d sim.Tick) uint64 {
	const corePeriod = 500 // ticks per 2 GHz cycle
	n := uint64(d) / corePeriod
	if n == 0 {
		n = 1
	}
	return n
}

// Spin is a pure-compute generator: the core stays 100% busy without
// touching memory. Useful as a neutral co-runner and in core tests.
type Spin struct{ Quantum uint64 }

// Next always returns a compute burst.
func (s *Spin) Next(sim.Tick) Op {
	q := s.Quantum
	if q == 0 {
		q = 100
	}
	return Op{Kind: OpCompute, Cycles: q}
}

// Finite wraps a generator, ending the stream after N operations.
type Finite struct {
	Gen  Generator
	N    uint64
	seen uint64
}

// Next forwards to the inner generator until N ops have been produced.
func (f *Finite) Next(now sim.Tick) Op {
	if f.seen >= f.N {
		return Op{Kind: OpDone}
	}
	f.seen++
	return f.Gen.Next(now)
}

// newRand returns the deterministic PRNG used by all generators.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
