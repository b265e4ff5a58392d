package workload

import (
	"testing"

	"repro/internal/sim"
)

func TestSpinOnlyComputes(t *testing.T) {
	s := &Spin{Quantum: 50}
	for i := 0; i < 10; i++ {
		op := s.Next(0)
		if op.Kind != OpCompute || op.Cycles != 50 {
			t.Fatalf("Spin produced %+v", op)
		}
	}
	var d Spin
	if op := d.Next(0); op.Cycles == 0 {
		t.Fatal("zero-quantum Spin produced zero-cycle compute")
	}
}

func TestFiniteEnds(t *testing.T) {
	f := &Finite{Gen: &Spin{}, N: 3}
	for i := 0; i < 3; i++ {
		if op := f.Next(0); op.Kind != OpCompute {
			t.Fatalf("op %d = %+v", i, op)
		}
	}
	if op := f.Next(0); op.Kind != OpDone {
		t.Fatalf("4th op = %+v, want OpDone", op)
	}
	if op := f.Next(0); op.Kind != OpDone {
		t.Fatalf("OpDone not sticky: %+v", op)
	}
}

func TestStreamTriadPattern(t *testing.T) {
	s := &Stream{Base: 0x1000, Footprint: 1 << 20, Compute: 2}
	var kinds []OpKind
	var addrs []uint64
	for i := 0; i < 12; i++ {
		op := s.Next(0)
		kinds = append(kinds, op.Kind)
		if op.Kind == OpLoad || op.Kind == OpStore {
			addrs = append(addrs, op.Addr)
		}
	}
	// Pattern: C L C L C S repeated.
	want := []OpKind{OpCompute, OpLoad, OpCompute, OpLoad, OpCompute, OpStore}
	for i, k := range kinds[:6] {
		if k != want[i] {
			t.Fatalf("op sequence %v, want prefix %v", kinds, want)
		}
	}
	// Three distinct arrays.
	if !(addrs[0] >= 0x1000 && addrs[1] >= 0x1000+1<<20 && addrs[2] >= 0x1000+2<<20) {
		t.Fatalf("triad addresses not in distinct arrays: %#x", addrs[:3])
	}
	// Second iteration advances by one stride.
	if addrs[3] != addrs[0]+64 {
		t.Fatalf("stride: %#x -> %#x", addrs[0], addrs[3])
	}
}

func TestStreamWrapsFootprint(t *testing.T) {
	s := &Stream{Base: 0, Footprint: 256} // 4 blocks
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		op := s.Next(0)
		if op.Kind == OpLoad && op.Addr < 256 {
			seen[op.Addr] = true
			if op.Addr >= 256 {
				t.Fatalf("array-a access beyond footprint: %#x", op.Addr)
			}
		}
	}
	if len(seen) != 4 {
		t.Fatalf("visited %d blocks of array a, want 4", len(seen))
	}
}

func TestCacheFlushStaysInRegionAndSpreads(t *testing.T) {
	c := &CacheFlush{Base: 1 << 30, Footprint: 1 << 20, Seed: 3}
	seen := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		op := c.Next(0)
		if op.Kind != OpLoad {
			t.Fatalf("CacheFlush produced %+v", op)
		}
		if op.Addr < 1<<30 || op.Addr >= 1<<30+1<<20 {
			t.Fatalf("address %#x outside region", op.Addr)
		}
		if op.Addr%64 != 0 {
			t.Fatalf("address %#x not block aligned", op.Addr)
		}
		seen[op.Addr] = true
	}
	if len(seen) < 1000 {
		t.Fatalf("only %d distinct blocks in 2000 random accesses", len(seen))
	}
}

func TestSpecProxiesDiffer(t *testing.T) {
	lbm := NewLBM(0)
	leslie := NewLeslie3d(0)
	if lbm.Footprint <= leslie.Footprint {
		t.Fatal("lbm proxy should have the larger footprint")
	}
	if lbm.Compute >= leslie.Compute {
		t.Fatal("lbm proxy should be more memory-intensive (less compute)")
	}
}

func TestDiskCopyChunksAndCompletes(t *testing.T) {
	d := &DiskCopy{TotalBytes: 1 << 20, ChunkBytes: 256 << 10, Write: true, Compute: 10}
	var bytes uint64
	var ops int
	for {
		op := d.Next(0)
		if op.Kind == OpDone {
			break
		}
		if op.Kind == OpDiskWrite {
			bytes += uint64(op.Bytes)
			ops++
		}
		if ops > 100 {
			t.Fatal("disk copy never finished")
		}
	}
	if bytes != 1<<20 || ops != 4 {
		t.Fatalf("transferred %d bytes in %d ops, want 1MiB in 4", bytes, ops)
	}
	if d.Completed != 1<<20 {
		t.Fatalf("Completed = %d", d.Completed)
	}
}

func TestDiskCopyLoops(t *testing.T) {
	d := &DiskCopy{TotalBytes: 256 << 10, ChunkBytes: 256 << 10, Write: true, Loop: true}
	for i := 0; i < 10; i++ {
		if op := d.Next(0); op.Kind == OpDone {
			t.Fatal("looping disk copy ended")
		}
	}
	if d.Completed < 5*(256<<10) {
		t.Fatalf("loop transferred only %d bytes", d.Completed)
	}
}

func TestDiskCopyPartialTail(t *testing.T) {
	d := &DiskCopy{TotalBytes: 300 << 10, ChunkBytes: 256 << 10, Write: true}
	op1 := d.Next(0)
	op2 := d.Next(0)
	if op1.Bytes != 256<<10 || op2.Bytes != 44<<10 {
		t.Fatalf("chunks = %d, %d", op1.Bytes, op2.Bytes)
	}
}

func TestMemcachedPrewarmThenIdle(t *testing.T) {
	m := NewMemcached(MemcachedConfig{RPS: 1000, ComputeCycles: 100, Accesses: 4, FootprintBytes: 1 << 20, Seed: 1})
	// Dataset load: one sequential pass over the footprint.
	blocks := int(m.cfg.FootprintBytes / 64)
	for i := 0; i < blocks; i++ {
		op := m.Next(0)
		if op.Kind != OpLoad || op.Addr != uint64(i)*64 {
			t.Fatalf("prewarm op %d = %+v", i, op)
		}
	}
	// Then idle until the first request arrives.
	if op := m.Next(0); op.Kind != OpIdle {
		t.Fatalf("post-prewarm op = %+v, want OpIdle before first arrival", op)
	}
}

// drainPrewarm consumes the dataset-load phase.
func drainPrewarm(m *Memcached) {
	for i := uint64(0); i < m.cfg.FootprintBytes/64; i++ {
		m.Next(0)
	}
}

func TestMemcachedServesRequests(t *testing.T) {
	m := NewMemcached(MemcachedConfig{RPS: 1e8, ComputeCycles: 10, Accesses: 3, FootprintBytes: 1 << 20, Seed: 2})
	drainPrewarm(m)
	now := sim.Tick(0)
	loads, computes := 0, 0
	for i := 0; i < 200; i++ {
		op := m.Next(now)
		switch op.Kind {
		case OpLoad:
			loads++
			if op.Addr >= 1<<20 {
				t.Fatalf("load outside footprint: %#x", op.Addr)
			}
		case OpCompute:
			computes++
		}
		now += 1000 // advance 1ns per op
	}
	if m.Completed == 0 {
		t.Fatal("no requests completed at extreme load")
	}
	if loads != int(m.Completed+1)*3 && loads < 3 {
		t.Fatalf("loads = %d for %d completed requests", loads, m.Completed)
	}
	if m.Latencies.Count() != m.Completed {
		t.Fatal("latency histogram diverges from completion count")
	}
}

func TestMemcachedLatencyIncludesQueueing(t *testing.T) {
	// Service is slow (long compute) so later arrivals queue; their
	// measured latency must exceed pure service time.
	m := NewMemcached(MemcachedConfig{RPS: 1e6, ComputeCycles: 1, Accesses: 1, FootprintBytes: 1 << 20, Seed: 3})
	drainPrewarm(m)
	now := sim.Tick(0)
	// Each op takes 100µs of simulated time: massive overload.
	for i := 0; i < 100; i++ {
		m.Next(now)
		now += 100 * sim.Microsecond
	}
	if m.Completed < 2 {
		t.Skip("not enough completions")
	}
	if m.Latencies.Max() <= uint64(200*sim.Microsecond) {
		t.Fatalf("max latency %v shows no queueing under overload",
			sim.Tick(m.Latencies.Max()))
	}
}

func TestMemcachedResetStats(t *testing.T) {
	m := NewMemcached(MemcachedConfig{RPS: 1e6, ComputeCycles: 1, Accesses: 1, FootprintBytes: 1 << 20, Seed: 4})
	drainPrewarm(m)
	now := sim.Tick(0)
	for i := 0; i < 50; i++ {
		m.Next(now)
		now += sim.Microsecond
	}
	m.ResetStats()
	if m.Completed != 0 || m.Latencies.Count() != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

func TestMemcachedDeterministic(t *testing.T) {
	run := func() uint64 {
		m := NewMemcached(MemcachedConfig{RPS: 50000, ComputeCycles: 10, Accesses: 2, FootprintBytes: 1 << 20, Seed: 9})
		drainPrewarm(m)
		now := sim.Tick(0)
		for i := 0; i < 500; i++ {
			m.Next(now)
			now += 500 * sim.Nanosecond
		}
		return m.Latencies.Sum() + m.Completed*1000003
	}
	if run() != run() {
		t.Fatal("memcached generator not deterministic")
	}
}

func TestMemcachedInvalidRPSPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RPS=0 did not panic")
		}
	}()
	NewMemcached(MemcachedConfig{RPS: 0})
}
