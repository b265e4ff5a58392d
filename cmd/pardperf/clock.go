package main

import (
	"sort"
	"time"
)

// probeNominalNs is about what one probe takes on the reference host
// (2 vCPU KVM guest, Xeon at 2.0 GHz, go1.24.0) in its fastest periods;
// it took 2.6 to 4.7 ms there. Timings are reported in reference
// seconds: wall time times probeNominalNs over what the probe takes on
// this host at that moment.
const probeNominalNs = 2.7e6

// probeWindow is how many probes, centred on a step, the factor for that
// step is the median of. Hosts change speed over tens of seconds, so a
// window of about one second follows them while a probe slowed by a
// preemption or a GC does not move the median.
const probeWindow = 11

// hostClock measures how fast the host runs right now, with a fixed probe
// whose cost moves with host speed the way the simulator's does: a binary
// min-heap of integers and map increments, the simulator's own hot paths
// (its event queue and its per-DS-id tables). Of the probes tried on the
// reference host (sorting, pointer chasing over 256 KiB and 4 MiB,
// allocation, map, heap) these two tracked colocate's step time most
// closely, slowing by the same factor in slow periods. The probe
// allocates nothing after newHostClock, so it does not change when the
// collector runs.
//
// Shared hosts run the same code up to 1.8x slower for tens of seconds at
// a time, in CPU time as in wall time. Scaling each timing by the probe
// measured beside it keeps that out of the end-to-end metrics, while a
// change to the program, which the probe does not run, moves them in
// full.
type hostClock struct {
	counts map[uint64]uint32
	heap   []uint64
	sink   uint64
}

const (
	probeKeys = 5000
	probeOps  = 60000
	probeHeap = 512
)

func newHostClock() *hostClock {
	c := &hostClock{
		counts: make(map[uint64]uint32, probeKeys),
		heap:   make([]uint64, 0, probeHeap+1),
	}
	c.probe()
	return c
}

// probe runs the fixed work once and returns its wall time in ns.
func (c *hostClock) probe() float64 {
	t0 := time.Now()
	clear(c.counts)
	h := c.heap[:0]
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < probeOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.counts[x%probeKeys]++
		h = append(h, x>>34)
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
		if len(h) > probeHeap {
			n := len(h) - 1
			h[0] = h[n]
			h = h[:n]
			for k := 0; ; {
				l := 2*k + 1
				if l >= n {
					break
				}
				if l+1 < n && h[l+1] < h[l] {
					l++
				}
				if h[k] <= h[l] {
					break
				}
				h[k], h[l] = h[l], h[k]
				k = l
			}
		}
	}
	c.sink += h[0] + uint64(len(c.counts))
	return float64(time.Since(t0).Nanoseconds())
}

// factor probes n times and returns probeNominalNs over the median:
// multiplying a wall time taken now by it gives reference time.
func (c *hostClock) factor(n int) float64 {
	ns := make([]float64, n)
	for i := range ns {
		ns[i] = c.probe()
	}
	return probeNominalNs / median(ns)
}

// scaleSteps converts each step's wall time to reference time with the
// median of the probeWindow probes centred on it; probeNs[i] was taken
// right after step i.
func scaleSteps(stepNs, probeNs []float64) []float64 {
	out := make([]float64, len(stepNs))
	for i, ns := range stepNs {
		lo := max(0, min(i-probeWindow/2, len(probeNs)-probeWindow))
		hi := min(len(probeNs), lo+probeWindow)
		out[i] = ns * probeNominalNs / median(probeNs[lo:hi])
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
